//go:build unix

package graph

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// mapFile maps path read-only and returns the image with the call that
// unmaps it. A big-endian host cannot alias the little-endian encoding
// and reports errMmapUnsupported, like a platform without mmap.
func mapFile(path string) (data []byte, unmap func() error, err error) {
	if !hostLittleEndian() {
		return nil, nil, errMmapUnsupported
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("graph: %w", err)
	}
	size := fi.Size()
	if size < headerSize {
		return nil, nil, badFormat("file is %d bytes, smaller than the header", size)
	}
	data, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: mmap %s: %w", path, err)
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}

// hostLittleEndian reports whether the host matches the file encoding.
func hostLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}
