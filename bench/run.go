package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	warmupOps = 10  // per set-up, at the measured rung, before anything is timed; one whole deck if that is more
	setupReps = 3   // set-ups per run; setup_s is their median
	minOps    = 100 // a timed run goes on until this many ops ran: p90 needs ten samples beyond it
)

// config is one run of one workload.
type config struct {
	w       *workload
	seed    uint64
	seconds float64 // > 0: measure for this long; 0: measure w.ops ops
	outDir  string
	// small shrinks the graphs sixteenfold and the op counts fiftyfold,
	// with one set-up: the harness's own smoke test.
	small bool
}

func (c config) div() uint32 {
	if c.small {
		return 16
	}
	return 1
}

func (c config) shrink(n int) int {
	if c.small {
		return max(n/50, 2)
	}
	return n
}

// sample is one completed op of a loop.
type sample struct {
	idx int // position in the request list
	ms  float64
	wk  work
}

// loopResult is one closed-loop drive of a request list.
type loopResult struct {
	samples  []sample // completion order
	failed   int
	firstErr error
	wall     time.Duration
	cpu      time.Duration
}

func (l loopResult) sorted() []float64 {
	out := make([]float64, len(l.samples))
	for i, s := range l.samples {
		out[i] = s.ms
	}
	sort.Float64s(out)
	return out
}

// loop drives the request list closed-loop from the given number of
// clients: each takes the next position of the list when its previous
// op returns. With d == 0 it runs list positions [0, n); with d > 0 it
// cycles through the list until d has passed and n ops have run.
func (r *runner) loop(at rung, ops []*op, clients, n int, d time.Duration) loopResult {
	var (
		res  loopResult
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	cpu0 := cpuTime()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n && (d == 0 || time.Since(start) >= d) {
					return
				}
				t0 := time.Now()
				wk, err := r.do(at, i, ops[i%len(ops)])
				took := time.Since(t0)
				mu.Lock()
				res.samples = append(res.samples, sample{idx: i, ms: ms(took), wk: wk})
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	return res
}

// peakRSSMB is this process's peak resident set size: VmHWM of
// /proc/self/status, 0 where there is no such file. Not getrusage's
// ru_maxrss, which survives exec: under "go run" it reports the go
// command's peak, not this program's.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	_, rest, _ := strings.Cut(string(data), "VmHWM:")
	var kb float64
	_, _ = fmt.Sscan(rest, &kb)
	return kb * 1024 / 1e6
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one pass over one workload; it is written to
// <outDir>/<workload>.<pass>.json and printed.
type report struct {
	Workload  string   `json:"workload"`
	Pass      string   `json:"pass"` // "e2e" (tracing off) or "layers" (traced)
	Seed      uint64   `json:"seed"`
	Clients   int      `json:"clients"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	FirstErr  string   `json:"first_error,omitempty"`
	MeasuredS float64  `json:"measured_s"`
	OracleS   float64  `json:"oracle_s"` // not part of setup_s
	Counters  counters `json:"counters"` // totals over the attempted ops
	Metrics   []metric `json:"metrics"`
	// SelfMS, from the traced pass, is the median self time of the spans
	// of each name: a span's duration minus what its children cover.
	SelfMS []metric `json:"self_ms_p50,omitempty"`
}

func (rep *report) add(name string, value float64, unit string) {
	rep.Metrics = append(rep.Metrics, metric{name, value, unit})
}

// value is the named metric, 0 if the report has none.
func (rep *report) value(name string) float64 {
	for _, m := range rep.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// prepared is a workload ready to be measured: request list, oracle,
// and a runner over a warmed-up env.
type prepared struct {
	ops    []*op
	r      *runner
	setupS float64
	oracle time.Duration
}

// prepare computes the oracle, then sets the workload up — generate,
// save and split, start servers, warm up — setupReps times, keeping the
// last. Oracle time is reported apart from set-up time.
func prepare(cfg config, tr *tracer, threads int) (*prepared, error) {
	w := cfg.w
	ops, err := w.makeOps(cfg.seed, max(cfg.shrink(w.ops), cfg.shrink(w.sample)))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	or, err := w.newOracle(w.graph(cfg.seed, cfg.div()))
	if err != nil {
		return nil, err
	}
	p := &prepared{ops: ops, oracle: time.Since(t0)}
	reps := setupReps
	if cfg.small {
		reps = 1
	}
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		if p.r != nil {
			p.r.e.close()
		}
		// Collect the last phase's garbage now, so that when the heap
		// next grows — and with it peak RSS, in 4 MB steps — does not
		// depend on where the collector happened to be.
		runtime.GC()
		t0 := time.Now()
		e, err := newEnv(w, cfg.seed, cfg.div(), cfg.outDir, w.rung, tr)
		if err != nil {
			return nil, err
		}
		p.r = &runner{e: e, or: or, threads: threads}
		// A whole deck, so that set-up does the same work whatever the seed.
		if warm := p.r.loop(w.rung, ops, w.clients, cfg.shrink(max(warmupOps, len(w.deck))), 0); warm.failed > 0 {
			e.close()
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, warm.firstErr)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	p.setupS = median(setups)
	return p, nil
}

// measure is the untraced pass: the workload's ops at its own rung,
// closed-loop, timed from outside.
func measure(cfg config, threads int) (*report, error) {
	w := cfg.w
	p, err := prepare(cfg, nil, threads)
	if err != nil {
		return nil, err
	}
	defer p.r.e.close()
	n, d := cfg.shrink(w.ops), time.Duration(0)
	if cfg.seconds > 0 {
		n, d = cfg.shrink(minOps), time.Duration(cfg.seconds*float64(time.Second))
	}
	runtime.GC() // as in prepare: start the measured window from a collected heap
	res := p.r.loop(w.rung, p.ops, w.clients, n, d)

	rep := &report{
		Workload: w.name, Pass: "e2e", Seed: cfg.seed, Clients: w.clients,
		Attempted: len(res.samples), Failed: res.failed,
		MeasuredS: res.wall.Seconds(), OracleS: p.oracle.Seconds(),
	}
	if res.firstErr != nil {
		rep.FirstErr = res.firstErr.Error()
	}
	for _, s := range res.samples {
		rep.Counters.add(s.wk)
	}
	lat := res.sorted()
	p50, _ := percentile(lat, 50)
	rep.add("op_ms_p50", p50, "ms")
	if p90, err := percentile(lat, 90); err == nil {
		rep.add("op_ms_p90", p90, "ms")
	} else if !cfg.small {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rep.add("ops_per_s", float64(rep.Attempted-rep.Failed)/res.wall.Seconds(), "1/s")
	rep.add("cpu_ms_per_op", ms(res.cpu)/float64(rep.Attempted), "ms")
	rep.add("peak_rss_mb", peakRSSMB(), "MB")
	rep.add("setup_s", p.setupS, "s")
	return rep, nil
}
