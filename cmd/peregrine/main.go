// Command peregrine runs graph mining applications from the command
// line, mirroring the paper's evaluation workloads:
//
//	peregrine -graph g.txt count -pattern "0-1 1-2 2-0"
//	peregrine -graph g.txt motifs -size 3
//	peregrine -graph g.txt cliques -k 4
//	peregrine -graph g.txt exists -k 14
//	peregrine -graph g.txt fsm -edges 3 -support 300
//	peregrine -graph g.txt cc -bound 0.3
//
// The graph file is any format LoadGraph detects: a text edge list
// ("src dst" lines, optional "v id label" label lines, '#' comments), a
// .pgr binary graph, or a shard manifest.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"peregrine"
)

func main() {
	graphPath := flag.String("graph", "", "path to the data graph (edge list, .pgr, or shard manifest)")
	threads := flag.Int("threads", 0, "worker threads (default GOMAXPROCS)")
	noSym := flag.Bool("no-symmetry-breaking", false, "disable symmetry breaking (PRG-U mode)")
	flag.Parse()

	if *graphPath == "" || flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	g, err := peregrine.LoadGraph(*graphPath)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "loaded %v in %s\n", g, *graphPath)

	var opts []peregrine.Option
	if *threads > 0 {
		opts = append(opts, peregrine.WithThreads(*threads))
	}
	if *noSym {
		opts = append(opts, peregrine.WithoutSymmetryBreaking())
	}

	app := flag.Arg(0)
	sub := flag.NewFlagSet(app, flag.ExitOnError)
	switch app {
	case "count", "match":
		pat := sub.String("pattern", "", `pattern text, e.g. "0-1 1-2 2-0" (see ParsePattern)`)
		induced := sub.Bool("vertex-induced", false, "use vertex-induced matching semantics")
		list := sub.Bool("list", false, "print each match instead of counting")
		parse(sub)
		p, err := peregrine.ParsePattern(*pat)
		if err != nil {
			fatal(err)
		}
		if *induced {
			opts = append(opts, peregrine.VertexInduced())
		}
		t0 := time.Now()
		if *list {
			st, err := peregrine.ForEachMatch(g, p, func(ctx *peregrine.Ctx, m *peregrine.Match) {
				fmt.Println(m.OrigMapping(g))
			}, opts...)
			if err != nil {
				fatal(err)
			}
			report(st.Matches, t0)
		} else {
			n, err := peregrine.Count(g, p, opts...)
			if err != nil {
				fatal(err)
			}
			report(n, t0)
		}

	case "motifs":
		size := sub.Int("size", 3, "motif size in vertices")
		parse(sub)
		t0 := time.Now()
		counts, err := peregrine.MotifCounts(g, *size, opts...)
		if err != nil {
			fatal(err)
		}
		var total uint64
		for _, mc := range counts {
			fmt.Printf("%-40v %12d\n", mc.Pattern, mc.Count)
			total += mc.Count
		}
		report(total, t0)

	case "cliques":
		k := sub.Int("k", 3, "clique size")
		parse(sub)
		t0 := time.Now()
		n, err := peregrine.CliqueCount(g, *k, opts...)
		if err != nil {
			fatal(err)
		}
		report(n, t0)

	case "exists":
		k := sub.Int("k", 14, "clique size to test for")
		parse(sub)
		t0 := time.Now()
		ok, err := peregrine.CliqueExists(g, *k, opts...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d-clique exists: %v (%.3fs)\n", *k, ok, time.Since(t0).Seconds())

	case "fsm":
		edges := sub.Int("edges", 3, "pattern size in edges")
		support := sub.Int("support", 100, "MNI support threshold")
		parse(sub)
		t0 := time.Now()
		res, err := peregrine.FSM(g, *edges, *support, opts...)
		if err != nil {
			fatal(err)
		}
		for _, lvl := range res.Levels {
			fmt.Fprintf(os.Stderr, "level %d: %d queries, %d labeled, %d frequent (%.3fs)\n",
				lvl.Edges, lvl.QueriesMatched, lvl.LabeledDiscovered, lvl.LabeledFrequent, lvl.Elapsed.Seconds())
		}
		if res.Stopped {
			fmt.Fprintln(os.Stderr, "peregrine: fsm was cut short; no frequent patterns reported")
		}
		for _, f := range res.Frequent {
			fmt.Printf("%-40v support=%d\n", f.Pattern, f.Support)
		}
		report(uint64(len(res.Frequent)), t0)

	case "cc":
		bound := sub.Float64("bound", 0.1, "clustering-coefficient bound to test")
		parse(sub)
		t0 := time.Now()
		above, err := peregrine.GlobalClusteringCoefficientExceeds(g, *bound, opts...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("clustering coefficient > %v: %v (%.3fs)\n", *bound, above, time.Since(t0).Seconds())

	default:
		usage()
		os.Exit(2)
	}
}

func parse(fs *flag.FlagSet) {
	if err := fs.Parse(flag.Args()[1:]); err != nil {
		os.Exit(2)
	}
}

func report(n uint64, t0 time.Time) {
	fmt.Printf("result: %d (%.3fs)\n", n, time.Since(t0).Seconds())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "peregrine:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: peregrine -graph FILE [-threads N] [-no-symmetry-breaking] APP [app flags]

apps:
  count  -pattern "0-1 1-2 2-0" [-vertex-induced] [-list]
  motifs -size 3
  cliques -k 4
  exists -k 14
  fsm    -edges 3 -support 100
  cc     -bound 0.3`)
}
