// Frequent subgraph mining on a labeled co-authorship-style graph
// (the paper's Figure 4a program): discover all labeled patterns with
// up to 3 edges whose MNI support exceeds a threshold, with dynamic
// label discovery.
package main

import (
	"flag"
	"fmt"
	"log"

	"peregrine"
)

func main() {
	edges := flag.Int("edges", 3, "pattern size in edges")
	support := flag.Int("support", 35, "MNI support threshold")
	scale := flag.Int("scale", 1, "dataset scale")
	flag.Parse()

	// mico-lite: a labeled power-law graph standing in for the Mico
	// co-authorship dataset (29 research-field labels).
	g := peregrine.StandardDataset(peregrine.MicoLite, *scale)
	fmt.Printf("dataset: %v\n", g)

	res, err := peregrine.FSM(g, *edges, *support)
	if err != nil {
		log.Fatal(err)
	}
	for _, lvl := range res.Levels {
		fmt.Printf("level %d edges: explored %d queries, discovered %d labelings, %d frequent (%.2fs)\n",
			lvl.Edges, lvl.QueriesMatched, lvl.LabeledDiscovered, lvl.LabeledFrequent, lvl.Elapsed.Seconds())
	}
	fmt.Printf("\nfrequent %d-edge labeled patterns at support %d:\n", *edges, *support)
	for i, f := range res.Frequent {
		if i == 20 {
			fmt.Printf("  ... and %d more\n", len(res.Frequent)-20)
			break
		}
		fmt.Printf("  %-44v support=%d\n", f.Pattern, f.Support)
	}
	fmt.Printf("MNI domain memory: %.1f KiB\n", float64(res.DomainBytes)/1024)
}
