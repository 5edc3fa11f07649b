// Command gengraph generates synthetic data graphs, and converts
// between the formats understood by the library: the text edge list
// and the mmap-able .pgr binary CSR.
//
// Usage:
//
//	gengraph -kind rmat -v 100000 -e 1000000 -labels 29 -seed 1 -o mico-like.txt
//	gengraph -kind er   -v 300000 -e 1500000 -maxdeg 800 -o patents-like.txt
//	gengraph -dataset mico-lite -scale 4 -format pgr -o mico.pgr
//	gengraph -in mico-like.txt -format pgr -o mico-like.pgr   # convert
//	gengraph -dataset patents-lite -shards 4 -o patents.manifest
//
// -format defaults to the -o extension (.pgr selects the binary),
// else the edge list. Converting an existing graph with -in re-reads
// it (either format, auto-detected) and rewrites it in -format.
//
// -shards N partitions the graph into N contiguous vertex ranges,
// balanced by adjacency size, and writes one .pgr fragment per shard
// next to -o plus the manifest at -o itself. The manifest loads like
// any other graph file — every fragment mapped, as a .pgr is — and
// seeds peregrine-coord's fan-out ranges.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"peregrine/internal/gen"
	"peregrine/internal/graph"
)

func main() {
	kind := flag.String("kind", "rmat", "generator: rmat | er")
	vertices := flag.Uint("v", 10000, "number of vertices")
	edges := flag.Uint64("e", 100000, "number of edge samples")
	labels := flag.Int("labels", 0, "number of distinct labels (0 = unlabeled)")
	maxdeg := flag.Uint("maxdeg", 0, "degree cap for the er generator (0 = uncapped)")
	seed := flag.Uint64("seed", 1, "PRNG seed")
	dataset := flag.String("dataset", "", "built-in stand-in: mico-lite | patents-lite | patents-labeled | orkut-lite | friendster-lite")
	scale := flag.Int("scale", 1, "scale multiplier for -dataset")
	in := flag.String("in", "", "convert an existing graph file (either format) instead of generating")
	format := flag.String("format", "", "output format: edgelist | pgr (default: by -o extension)")
	shards := flag.Int("shards", 0, "partition into this many .pgr fragments plus a manifest at -o (requires -o)")
	out := flag.String("o", "", "output path (default stdout)")
	flag.Parse()

	if *shards > 0 {
		*format = "sharded"
		if *out == "" {
			fmt.Fprintln(os.Stderr, "gengraph: -shards requires -o (the manifest path)")
			os.Exit(2)
		}
	}
	if *format == "" {
		if strings.HasSuffix(*out, ".pgr") {
			*format = "pgr"
		} else {
			*format = "edgelist"
		}
	}
	if *format != "pgr" && *format != "edgelist" && *format != "sharded" {
		fmt.Fprintf(os.Stderr, "gengraph: unknown format %q (want edgelist or pgr)\n", *format)
		os.Exit(2)
	}

	var g *graph.Graph
	if *in != "" {
		src, err := graph.OpenPath(*in)
		if err == nil {
			g, err = src.Load()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "gengraph:", err)
			os.Exit(1)
		}
	} else if *dataset != "" {
		d, err := gen.ParseDataset(*dataset)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gengraph:", err)
			os.Exit(2)
		}
		g = gen.Standard(d, *scale)
	} else {
		switch *kind {
		case "rmat":
			g = gen.RMAT(gen.RMATConfig{
				Vertices: uint32(*vertices), Edges: *edges,
				Seed: *seed, Labels: *labels,
			})
		case "er":
			g = gen.ErdosRenyi(gen.ERConfig{
				Vertices: uint32(*vertices), Edges: *edges,
				MaxDegree: uint32(*maxdeg), Seed: *seed, Labels: *labels,
			})
		default:
			fmt.Fprintf(os.Stderr, "gengraph: unknown kind %q\n", *kind)
			os.Exit(2)
		}
	}

	// The Save* paths write via temp-file-and-rename, so converting a
	// graph over its own path (-in x.pgr -o x.pgr) is safe even while
	// the loaded graph aliases the input file's mapping.
	var err error
	switch {
	case *format == "sharded":
		var m *graph.Manifest
		if m, err = graph.SaveSharded(*out, g, *shards); err == nil {
			fmt.Fprintf(os.Stderr, "gengraph: wrote %v as %d fragment(s) + manifest %s\n",
				g, len(m.Shards), *out)
			return
		}
	case *out == "" && *format == "pgr":
		err = graph.WriteBinary(os.Stdout, g)
	case *out == "":
		err = graph.WriteEdgeList(os.Stdout, g)
	case *format == "pgr":
		err = graph.SaveBinary(*out, g)
	default:
		err = graph.SaveEdgeList(*out, g)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "gengraph: wrote %v (%s)\n", g, *format)
}
