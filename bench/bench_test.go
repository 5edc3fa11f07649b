package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"

	"peregrine/internal/gen"
	"peregrine/internal/pattern"
	"peregrine/internal/ref"
)

func TestPercentileNearestRankAndRefusal(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {1, 1}} {
		if got, err := percentile(xs, c.p); err != nil || got != c.want {
			t.Errorf("p%g of 1..100 = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	// 99 samples leave 9 beyond p90's rank (90): one short.
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Error("p90 of 99 samples was reported with 9 samples beyond it")
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 100 samples was reported with 1 sample beyond it")
	}
	// The median is exempt, down to one sample.
	if got, err := percentile(xs[:1], 50); err != nil || got != 1 {
		t.Errorf("median of one sample = %v, %v", got, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("median of no samples was reported")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "a", Parent: 0, StartNS: 10, EndNS: 40},    // overlaps b on [30,40)
		{Name: "b", Parent: 0, StartNS: 30, EndNS: 60},    // union with a covers [10,60)
		{Name: "c", Parent: 0, StartNS: 90, EndNS: 120},   // clipped to the parent's end
		{Name: "leaf", Parent: 1, StartNS: 15, EndNS: 20}, // grandchild: counts against a only
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRequestListIsAFunctionOfTheSeed(t *testing.T) {
	bodies := func(w *workload, seed uint64) []byte {
		ops, err := w.makeOps(seed, 300)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, o := range ops {
			buf.Write(o.body)
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	for _, w := range workloads(2) {
		a, b := bodies(w, 7), bodies(w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different request lists", w.name)
		}
		// The library workloads have one op, whatever the seed.
		if w.rung > rungPeregrine && bytes.Equal(a, bodies(w, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", w.name)
		}
	}
}

// TestOracleAgainstBruteForce cross-checks the ablated engine path the
// benchmark trusts as its oracle with the brute-force matcher, for
// every pattern of every pool, on a graph small enough to enumerate.
func TestOracleAgainstBruteForce(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 64, Edges: 200, Seed: 11})
	for _, w := range workloads(2) {
		or, err := w.newOracle(g)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range w.pool {
			want := ref.CountUnique(g, p)
			if w.vertexInduced {
				want = ref.CountUnique(g, pattern.VertexInduced(p))
			}
			if or.counts[i] != want {
				t.Errorf("%s: pattern %q: oracle %d, brute force %d", w.name, p, or.counts[i], want)
			}
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// names lists metrics as "name unit", without op_ms_p90: a smoke run
// has too few samples on most workloads and the percentile is refused.
func names(ms []metric) []string {
	var out []string
	for _, m := range ms {
		if m.Name != "op_ms_p90" {
			out = append(out, m.Name+" "+m.Unit)
		}
	}
	sort.Strings(out)
	return out
}

// TestSmokeEveryWorkload runs both passes over all four workloads at
// 1/50 of their size: no op may fail at any rung, and the metrics that
// come out are the ones BENCHMARK.json names, with its units.
func TestSmokeEveryWorkload(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metric
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metric{Name: m.Name, Unit: m.Unit})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metric{Name: m.Name, Unit: m.Unit})
	}
	wantE2E, wantLayers := names(e2e), names(layers)

	ws := workloads(2)
	if len(ws) != len(spec.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json names %d", len(ws), len(spec.Workloads))
	}
	for i, w := range ws {
		if w.name != spec.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.name, spec.Workloads[i].Name)
		}
		cfg := config{w: w, seed: 3, outDir: t.TempDir(), small: true}
		for pass, run := range map[string]func(config, int) (*report, error){"e2e": measure, "layers": ladder} {
			rep, err := run(cfg, 2)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, pass, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s %s: %d of %d ops failed: %s", w.name, pass, rep.Failed, rep.Attempted, rep.FirstErr)
			}
			want := wantE2E
			if pass == "layers" {
				want = wantLayers
			}
			if got := names(rep.Metrics); !slices.Equal(got, want) {
				t.Errorf("%s %s: metrics\n got %v\nwant %v", w.name, pass, got, want)
			}
		}
	}
}
