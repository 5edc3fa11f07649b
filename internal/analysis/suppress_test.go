package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"peregrine/internal/analysis"
)

const suppressSrc = `package p

func f() {
	a := 1 //pvet:ignore lockheld per-entry load serialization; lock order documented
	//pvet:ignore labeltrunc key space proven 16-bit in this shard
	b := 2
	c := 3 //pvet:ignore ctxthread
	_, _, _ = a, b, c
}
`

func parse(t *testing.T) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", suppressSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestSuppressionsParsing(t *testing.T) {
	fset, f := parse(t)
	sups, bad := analysis.Suppressions(fset, []*ast.File{f})

	if len(bad) != 1 {
		t.Fatalf("malformed count = %d, want 1 (the reasonless ctxthread directive)", len(bad))
	}
	if got := fset.Position(bad[0].Pos).Line; got != 7 {
		t.Errorf("malformed directive reported at line %d, want 7", got)
	}

	if len(sups) != 2 {
		t.Fatalf("suppression count = %d, want 2", len(sups))
	}
	// Trailing directive covers its own line.
	if s := sups[0]; s.Analyzer != "lockheld" || s.Line != 4 {
		t.Errorf("trailing suppression = %s@%d, want lockheld@4", s.Analyzer, s.Line)
	}
	// Standalone directive covers the next line.
	if s := sups[1]; s.Analyzer != "labeltrunc" || s.Line != 6 {
		t.Errorf("standalone suppression = %s@%d, want labeltrunc@6", s.Analyzer, s.Line)
	}
	for _, s := range sups {
		if s.Reason == "" {
			t.Errorf("%s suppression parsed with empty reason", s.Analyzer)
		}
	}
}

func TestFilterAndUnused(t *testing.T) {
	fset, f := parse(t)
	sups, _ := analysis.Suppressions(fset, []*ast.File{f})

	lineStart := func(line int) token.Pos {
		return fset.File(f.Pos()).LineStart(line)
	}
	diags := []Named{
		{Analyzer: "lockheld", Line: 4},   // covered by the trailing directive
		{Analyzer: "labeltrunc", Line: 4}, // wrong analyzer for that line
		{Analyzer: "labeltrunc", Line: 6}, // covered by the standalone directive
	}
	var named []analysis.Named
	for _, d := range diags {
		named = append(named, analysis.Named{
			Analyzer:   d.Analyzer,
			Diagnostic: analysis.Diagnostic{Pos: lineStart(d.Line), Message: "x"},
		})
	}

	kept := analysis.Filter(fset, named, sups)
	if len(kept) != 1 || kept[0].Analyzer != "labeltrunc" ||
		fset.Position(kept[0].Pos).Line != 4 {
		t.Fatalf("Filter kept %v, want only labeltrunc@4", kept)
	}
	if unused := analysis.Unused(sups); len(unused) != 0 {
		t.Errorf("Unused = %d findings, want 0: both suppressions matched", len(unused))
	}
}

func TestUnusedSuppression(t *testing.T) {
	fset, f := parse(t)
	sups, _ := analysis.Suppressions(fset, []*ast.File{f})

	// No diagnostics at all: every suppression is dead weight.
	analysis.Filter(fset, nil, sups)
	unused := analysis.Unused(sups)
	if len(unused) != 2 {
		t.Fatalf("Unused = %d findings, want 2", len(unused))
	}
	for _, u := range unused {
		if u.Analyzer != "pvet" {
			t.Errorf("unused-suppression finding attributed to %q, want pvet", u.Analyzer)
		}
	}
}

// Named mirrors the inputs TestFilterAndUnused builds, keeping the
// table literal readable.
type Named struct {
	Analyzer string
	Line     int
}
