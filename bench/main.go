// Command bench is the repository's one benchmark: four workloads, each
// run in a process of its own, measured end to end with tracing off,
// and in a separate traced pass split into per-module metrics by
// replaying a sample of the workload's ops at every rung of the stack.
// See README.md for the workloads, the metrics and how they interact.
//
//	go run ./bench -all                    every workload, end-to-end metrics
//	go run ./bench -all -trace 1           the same, then the traced pass
//	go run ./bench -workload serve_mix     one workload (what BENCHMARK.json's command runs)
//	go run ./bench -aa                     run everything twice and compare against the bounds
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// outDir holds results, traces and the graph files of a run; the
// benchmark writes nowhere else.
const outDir = "bench/out"

func main() {
	name := flag.String("workload", "", "run this workload in this process and print its metrics")
	all := flag.Bool("all", false, "run every workload, each in a child process")
	aa := flag.Bool("aa", false, "run every workload twice (fixed op counts) and check the two runs agree within BENCHMARK.json's bounds")
	seed := flag.Uint64("seed", 1, "seeds the graph generators and the request mix")
	seconds := flag.Float64("seconds", 0, "measure for this long (at least 100 ops); 0 measures the workload's fixed op count")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass and its per-module metrics")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("usage: bench (-workload NAME | -all | -aa) [-seed N] [-seconds S] [-trace 0|1]"))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	// nproc: engine threads, HTTP clients and connections are each
	// capped at the CPUs this process may use.
	nproc := runtime.GOMAXPROCS(0)
	ws := workloads(nproc)
	var err error
	switch {
	case *name != "":
		err = runOne(ws, *name, *seed, *seconds, *trace == 1, nproc)
	case *all:
		err = runAll(ws, *seed, *seconds, *trace == 1)
	case *aa:
		err = runAA(ws, *seed)
	default:
		err = fmt.Errorf("one of -workload, -all, -aa is required")
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runOne runs one pass over one workload in this process, prints every
// metric as "name workload value unit", and ends with the result line
// of the builder's contract.
func runOne(ws []*workload, name string, seed uint64, seconds float64, traced bool, nproc int) error {
	var w *workload
	for _, c := range ws {
		if c.name == name {
			w = c
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	cfg := config{w: w, seed: seed, seconds: seconds, outDir: outDir}
	var rep *report
	var err error
	if traced {
		rep, err = ladder(cfg, nproc)
	} else {
		rep, err = measure(cfg, nproc)
	}
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(reportPath(w.name, rep.Pass), data, 0o644); err != nil {
		return err
	}
	rep.print(os.Stdout)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, make(map[string]value)}
	for _, m := range rep.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	return json.NewEncoder(os.Stdout).Encode(line)
}

func reportPath(workload, pass string) string {
	return filepath.Join(outDir, workload+"."+pass+".json")
}

func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "# %s pass=%s seed=%d clients=%d samples=%d failed=%d measured_s=%.2f oracle_s=%.2f\n",
		rep.Workload, rep.Pass, rep.Seed, rep.Clients, rep.Attempted, rep.Failed, rep.MeasuredS, rep.OracleS)
	if rep.FirstErr != "" {
		fmt.Fprintf(w, "# first failure: %s\n", rep.FirstErr)
	}
	for _, m := range rep.Metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", m.Name, rep.Workload, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, m := range rep.SelfMS {
		fmt.Fprintf(w, "# self_ms_p50 %s %s %.4f ms\n", m.Name, rep.Workload, m.Value)
	}
}

// child runs one pass over one workload in a fresh process — so peak
// RSS and CPU time are that workload's alone — and reads its report
// back. The child's metric lines pass through; its result line does not.
func child(w *workload, seed uint64, seconds float64, traced bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	pass, trace := "e2e", "0"
	if traced {
		pass, trace = "layers", "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	data, err := os.ReadFile(reportPath(w.name, pass))
	if err != nil {
		return nil, err
	}
	rep := new(report)
	return rep, json.Unmarshal(data, rep)
}

// runAll runs the untraced pass over every workload and, when traced,
// the traced pass after it; end-to-end numbers only ever come from the
// untraced pass. The last line is every report as one JSON object.
func runAll(ws []*workload, seed uint64, seconds float64, traced bool) error {
	passes := []bool{false}
	if traced {
		passes = append(passes, true)
	}
	var reps []*report
	failed := 0
	for _, w := range ws {
		for _, pass := range passes {
			rep, err := child(w, seed, seconds, pass)
			if err != nil {
				return err
			}
			reps = append(reps, rep)
			failed += rep.Failed
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(map[string]any{"correct": failed == 0, "reports": reps}); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name  string  `json:"name"`
	Bound float64 `json:"bound"`
}

// runAA is the benchmark checking itself: the untraced pass over every
// workload, twice on the same code with the same fixed op counts (the
// second time in reverse order), must agree within each metric's bound,
// no op may fail, and on the workloads whose path is deterministic the
// work counters must repeat exactly.
func runAA(ws []*workload, seed uint64) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-aa reads the bounds from BENCHMARK.json, from the root of the repository: %w", err)
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return err
	}
	first := make(map[string]*report)
	second := make(map[string]*report)
	for _, w := range ws {
		if first[w.name], err = child(w, seed, 0, false); err != nil {
			return err
		}
	}
	for i := len(ws) - 1; i >= 0; i-- {
		if second[ws[i].name], err = child(ws[i], seed, 0, false); err != nil {
			return err
		}
	}
	breaches := 0
	fmt.Println("# A/A: metric workload first second relative_difference bound")
	for _, w := range ws {
		a, b := first[w.name], second[w.name]
		for _, bd := range spec.EndToEnd {
			va, vb := a.value(bd.Name), b.value(bd.Name)
			diff := ratio(vb-va, va)
			verdict := "ok"
			if math.Abs(diff) > bd.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("%s %s %.6g %.6g %+.4f %.2f %s\n", bd.Name, w.name, va, vb, diff, bd.Bound, verdict)
		}
		if a.Failed+b.Failed > 0 {
			fmt.Printf("failed %s %d %d BREACH\n", w.name, a.Failed, b.Failed)
			breaches++
		}
		verdict := "ok"
		switch {
		case !w.exact:
			verdict = "not asserted: coalescing and early stops depend on timing"
		case a.Counters != b.Counters:
			verdict = "BREACH"
			breaches++
		}
		fmt.Printf("counters %s %+v %+v %s\n", w.name, a.Counters, b.Counters, verdict)
	}
	if breaches > 0 {
		return fmt.Errorf("A/A: %d breaches", breaches)
	}
	return nil
}
