package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"peregrine"
	"peregrine/internal/gen"
	"peregrine/internal/pattern"
)

// motifBodyVI renders a vertex-induced batched count request over the
// given skeleton texts.
func motifBodyVI(graphName string, texts []string, extra string) string {
	quoted := make([]string, len(texts))
	for i, t := range texts {
		quoted[i] = fmt.Sprintf("%q", t)
	}
	return fmt.Sprintf(`{"graph":%q,"kind":"count","patterns":[%s],"vertexInduced":true%s,"wait":true}`,
		graphName, strings.Join(quoted, ","), extra)
}

// motifTexts are the skeleton texts of every connected pattern of the
// given size — with vertexInduced set, the exact batch shape morphing
// exists for.
func motifTexts(size int) []string {
	var texts []string
	for _, p := range pattern.GenerateAllVertexInduced(size) {
		texts = append(texts, p.String())
	}
	return texts
}

// A vertex-induced motif batch must surface stats.morphing next to
// stats.sharing on both execution paths — coalesced (threads omitted)
// and direct (explicit thread bound bypasses the coalescer) — and both
// paths must feed the same server-wide counters in GET /v1/stats. The
// batch is every 4- and 5-motif: on tri5 the 4-motifs alone run as given,
// in canonical spellings, faster than the morphed set they ran while the
// cache compiled the spellings sent first (in-process, one thread, best of
// 9: 96 → 71 µs).
func TestMorphingStatsTelemetry(t *testing.T) {
	s, ts := coalesceTestServer(t, CoalesceConfig{Window: 20 * time.Millisecond})
	paths := []struct {
		name  string
		extra string
	}{
		{"coalesced", ""},
		{"direct", `,"threads":2`},
	}
	var decomposed uint64 // the runs' stats.morphing.decomposed, summed
	for i, tc := range paths {
		t.Run(tc.name, func(t *testing.T) {
			_, info := postQuery(t, ts, motifBodyVI("tri5", append(motifTexts(4), motifTexts(5)...), tc.extra))
			if info.Status != StatusDone || info.Result == nil || info.Result.Stats == nil {
				t.Fatalf("job = %+v", info)
			}
			m := info.Result.Stats.Morphing
			if m == nil {
				t.Fatalf("motif batch has no stats.morphing: %+v", info.Result.Stats)
			}
			if m.PatternsReplaced == 0 || m.MorphsChosen == 0 {
				t.Errorf("morphing = %+v, want patterns replaced", m)
			}
			if m.StepsMorphed >= m.StepsDirect {
				t.Errorf("stepsMorphed = %d, want < stepsDirect = %d", m.StepsMorphed, m.StepsDirect)
			}
			if info.Result.Stats.Sharing == nil {
				t.Error("stats.sharing missing next to stats.morphing")
			}
			// tri5 is 5 disjoint triangles: the vertex-induced batch finds
			// nothing, but only via correctly recovered zeros.
			if info.Result.Count != 0 {
				t.Errorf("count = %d, want 0 on disjoint triangles", info.Result.Count)
			}
			decomposed += m.Decomposed
			st := s.Stats()
			if st.MorphRuns != uint64(i+1) {
				t.Errorf("morphRuns = %d after %d morphing runs", st.MorphRuns, i+1)
			}
			if st.MorphDecomposed != decomposed {
				t.Errorf("morphDecomposed = %d, the runs decomposed %d", st.MorphDecomposed, decomposed)
			}
			if st.MorphPatternsReplaced == 0 || st.MorphStepsMorphed >= st.MorphStepsDirect {
				t.Errorf("server morph counters = %+v", st)
			}
		})
	}
	// The flat endpoint exposes the counters alongside the coalescer's.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var flat map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&flat); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"morphRuns", "morphCandidates", "morphsChosen", "morphPatternsReplaced",
		"morphRecoveryTerms", "morphStepsDirect", "morphStepsMorphed", "morphDecomposed",
	} {
		if _, ok := flat[key]; !ok {
			t.Errorf("GET /v1/stats missing %q", key)
		}
	}
	if flat["morphRuns"].(float64) < 2 {
		t.Errorf("morphRuns = %v, want both paths counted", flat["morphRuns"])
	}
}

// An edge-induced batch must not report morphing anywhere.
func TestMorphingAbsentOnEdgeInduced(t *testing.T) {
	s, ts := coalesceTestServer(t, CoalesceConfig{Window: time.Millisecond})
	_, info := postQuery(t, ts, `{"graph":"tri5","kind":"count","patterns":["0-1 1-2 2-0","0-1 1-2"],"wait":true}`)
	if info.Status != StatusDone || info.Result == nil || info.Result.Stats == nil {
		t.Fatalf("job = %+v", info)
	}
	if info.Result.Stats.Morphing != nil {
		t.Errorf("edge-induced batch reports morphing: %+v", info.Result.Stats.Morphing)
	}
	if st := s.Stats(); st.MorphRuns != 0 {
		t.Errorf("morphRuns = %d, want 0", st.MorphRuns)
	}
}

// Race stress for the morphing path through the coalescer: concurrent
// 5-vertex vertex-induced batches — the morphing-eligible shape — with
// mid-batch DELETEs. Completed jobs must report exactly the recovered
// counts the ablation computes, however their batches formed, merged,
// morphed, or lost members mid-run. Meant for -race.
func TestCoalescerMorphRaceStress(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 64, Edges: 140, Seed: 12})
	reg := NewRegistry()
	reg.AddGraph("er64", "test:er64", g)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s := NewServer(ctx, reg)
	s.SetCoalescing(CoalesceConfig{Window: time.Millisecond, MaxRequests: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Ground truth per skeleton text: the ablation's count of the
	// vertex-induced form, computed engine-side with morphing off.
	skels := pattern.GenerateAllVertexInduced(5)
	pool := make([]string, 0, 6)
	want := make(map[string]uint64)
	for _, skel := range skels[:6] {
		text := skel.String()
		c, err := peregrine.CountMany(g, []*peregrine.Pattern{pattern.VertexInduced(skel)},
			peregrine.WithThreads(2), peregrine.WithoutMorphing())
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, text)
		want[text] = c[0]
	}

	const workers = 6
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for r := 0; r < rounds; r++ {
				texts := []string{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
				if rng.Intn(3) == 0 {
					// Cancellation path: submit async, DELETE while the
					// batch is forming or executing; co-members must be
					// untouched.
					body := strings.Replace(motifBodyVI("er64", texts, ""), `,"wait":true`, "", 1)
					_, info := postQuery(t, ts, body)
					deleteJob(t, ts, info.ID)
					continue
				}
				_, info := postQuery(t, ts, motifBodyVI("er64", texts, ""))
				if info.Status != StatusDone || info.Result == nil {
					errs <- fmt.Errorf("worker %d: job %q (%s)", w, info.Status, info.Error)
					continue
				}
				for i, pc := range info.Result.PerPattern {
					if pc.Count != want[texts[i]] {
						errs <- fmt.Errorf("worker %d: %q = %d, want %d", w, texts[i], pc.Count, want[texts[i]])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := s.Stats(); st.MorphRuns == 0 {
		t.Error("stress never exercised the morphing path")
	}
}
