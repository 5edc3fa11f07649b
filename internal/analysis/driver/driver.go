// Package driver runs peregrine-vet's analyzers under the
// `go vet -vettool` protocol: cmd/go probes the tool with -V=full and
// -flags and then invokes it once per package with a JSON .cfg file
// naming sources and export data (see unitchecker.go). Findings pass
// through the //pvet:ignore suppression filtering before they print.
package driver

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"peregrine/internal/analysis"
	"peregrine/internal/analysis/load"
)

// Exit codes, matching x/tools' unitchecker convention: go vet treats
// any nonzero status as a failed gate.
const (
	exitClean = 0
	exitError = 1 // operational failure (load, typecheck, bad flags)
	exitDiags = 2 // findings reported
)

// Main is the entry point shared by cmd/peregrine-vet. It never
// returns.
func Main(analyzers []*analysis.Analyzer) {
	log.SetFlags(0)
	log.SetPrefix("peregrine-vet: ")

	fs := flag.NewFlagSet("peregrine-vet", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: go vet -vettool=$(which peregrine-vet) [-flags] ./...\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, firstLine(a.Doc))
		}
		fmt.Fprintf(fs.Output(), "\nSuppress one finding with `//pvet:ignore <analyzer> <reason>`; the reason is mandatory.\n")
		fs.PrintDefaults()
	}
	fs.Var(versionFlag{}, "V", "print version and exit (-V=full, used by the go command)")
	printFlags := fs.Bool("flags", false, "print analyzer flags in JSON (used by the go command)")
	jsonOut := fs.Bool("json", false, "emit JSON output")
	enabled := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer: "+firstLine(a.Doc))
	}
	_ = fs.Parse(os.Args[1:])

	if *printFlags {
		printFlagsJSON(fs)
		os.Exit(exitClean)
	}

	var active []*analysis.Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}

	args := fs.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fs.Usage()
		os.Exit(exitError)
	}
	os.Exit(unitcheck(args[0], active, *jsonOut))
}

// analyze runs the analyzers over one package and applies suppression
// filtering, returning the surviving findings (including suppression
// hygiene findings: malformed or unused //pvet:ignore directives).
func analyze(fset *token.FileSet, files []*ast.File, pkg *load.Package, analyzers []*analysis.Analyzer) []analysis.Named {
	var diags []analysis.Named
	for _, a := range analyzers {
		a := a
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		pass.Report = func(d analysis.Diagnostic) {
			diags = append(diags, analysis.Named{Diagnostic: d, Analyzer: a.Name})
		}
		if _, err := a.Run(pass); err != nil {
			diags = append(diags, analysis.Named{
				Analyzer:   a.Name,
				Diagnostic: analysis.Diagnostic{Pos: token.NoPos, Message: "analyzer failed: " + err.Error()},
			})
		}
	}
	sups, bad := analysis.Suppressions(fset, files)
	out := analysis.Filter(fset, diags, sups)
	out = append(out, bad...)
	out = append(out, analysis.Unused(sups)...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// emit prints findings for one package; it reports whether any were
// printed.
func emit(fset *token.FileSet, pkgPath string, diags []analysis.Named, jsonOut bool) bool {
	if len(diags) == 0 {
		return false
	}
	if jsonOut {
		type jsonDiag struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		byAnalyzer := make(map[string][]jsonDiag)
		for _, d := range diags {
			byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], jsonDiag{
				Posn:    fset.Position(d.Pos).String(),
				Message: d.Message,
			})
		}
		out, _ := json.MarshalIndent(map[string]map[string][]jsonDiag{pkgPath: byAnalyzer}, "", "\t")
		os.Stdout.Write(out)
		os.Stdout.Write([]byte("\n"))
		return true
	}
	for _, d := range diags {
		if d.Pos == token.NoPos {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pkgPath, d.Analyzer, d.Message)
		} else {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	return true
}

// printFlagsJSON emits the flag inventory in the format cmd/go parses
// when it probes a vettool with -flags.
func printFlagsJSON(fs *flag.FlagSet) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	fs.VisitAll(func(f *flag.Flag) {
		if f.Name == "V" || f.Name == "flags" {
			return
		}
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, _ := json.MarshalIndent(flags, "", "\t")
	os.Stdout.Write(data)
	os.Stdout.Write([]byte("\n"))
}

// versionFlag implements -V=full: cmd/go hashes the output into its
// build cache key, so it must identify this exact binary.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return false }
func (versionFlag) Get() any         { return nil }
func (versionFlag) String() string   { return "" }

func (versionFlag) Set(s string) error {
	if s != "full" {
		return fmt.Errorf("unsupported flag value: -V=%s", s)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	h := sha256.New()
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", exe, h.Sum(nil)[:16])
	os.Exit(exitClean)
	return nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
