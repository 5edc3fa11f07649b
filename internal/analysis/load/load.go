// Package load type-checks Go packages for peregrine-vet without
// golang.org/x/tools: the caller names a package's sources and its
// dependencies' compiler export data (the vet .cfg does; for fixtures,
// `go list -deps -export` does), the sources are parsed with go/parser,
// and imports resolve through go/importer's gc importer reading that
// export data. The result is the same
// (*ast.File, *types.Package, *types.Info) triple a go/packages driver
// would hand an analyzer, built entirely from the standard library and
// the already-installed toolchain — no network, no module downloads.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Export     string
	Error      *struct{ Err string }
}

// goList runs `go list <flags> -json=<fields> -- <patterns>` in dir
// and decodes the stream of package objects.
func goList(dir string, flags, patterns []string) ([]*listedPackage, error) {
	fields := "-json=ImportPath,Export,Error"
	args := append([]string{"list", fields}, flags...)
	args = append(args, "--")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(outPipe)
	var pkgs []*listedPackage
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			_ = cmd.Wait()
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	return pkgs, nil
}

// ExportLookup maps an import path to its compiler export data file.
type ExportLookup func(path string) (file string, ok bool)

// NewImporter returns a types.Importer that satisfies imports from gc
// export data named by lookup. "unsafe" is handled by the gc importer
// itself.
func NewImporter(fset *token.FileSet, lookup ExportLookup) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := lookup(path)
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// Check parses files (absolute, or relative to dir) and type-checks
// them as one package resolving imports through imp. Shared by the
// vet-cfg driver and the fixture test harness.
func Check(fset *token.FileSet, imp types.Importer, path, dir string, files []string) (*Package, error) {
	var parsed []*ast.File
	for _, name := range files {
		if !filepath.IsAbs(name) {
			name = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if len(typeErrs) < 10 {
				typeErrs = append(typeErrs, err.Error())
			}
		},
	}
	tpkg, _ := conf.Check(path, fset, parsed, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s:\n\t%s", path, strings.Join(typeErrs, "\n\t"))
	}
	return &Package{Fset: fset, Files: parsed, Types: tpkg, Info: info}, nil
}

// Exports resolves the direct import paths' export data files via
// `go list -export` in dir — the fixture harness uses this to
// type-check testdata packages that import real module packages.
func Exports(dir string, paths ...string) (map[string]string, error) {
	if len(paths) == 0 {
		return map[string]string{}, nil
	}
	listed, err := goList(dir, []string{"-deps", "-export"}, paths)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("load %s: %s", p.ImportPath, p.Error.Err)
		}
		// "unsafe" legitimately has no export data; anything else
		// missing one will surface as an import error during checking.
		if p.Export != "" {
			out[p.ImportPath] = p.Export
		}
	}
	return out, nil
}
