//go:build !unix

package graph

// Platforms without the unix mmap surface (notably windows) load .pgr
// files and shard fragments through the decoding reader; loadImage
// treats errMmapUnsupported as the signal to fall back. CI
// cross-compiles with GOOS=windows so this path cannot rot.
func mapFile(path string) (data []byte, unmap func() error, err error) {
	return nil, nil, errMmapUnsupported
}
