package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/ref"
)

// A ranged count with cuts answers, per decomposed row, V in 128 bits
// (count, countHi), and per plain row its count: summed over disjoint
// ranges, V is the whole graph's — here the 4-cycle at a diagonal, V =
// 8·count(C4) + 2·count(wedge) — on a sharded graph as on its in-memory
// twin.
func TestRangedCutsAnswerV(t *testing.T) {
	_, ts, _ := newShardTestServer(t)
	_, g, _ := shardedFixture(t)
	c4, wedge := ref.CountUnique(g, pattern.Cycle(4)), ref.CountUnique(g, pattern.Chain(3))
	wantV := new(big.Int).SetUint64(8 * c4)
	wantV.Add(wantV, new(big.Int).SetUint64(2*wedge))
	for _, name := range []string{"whole", "sharded"} {
		v, w := new(big.Int), uint64(0)
		for _, r := range [][2]uint32{{0, 31}, {31, 70}, {70, 0}} {
			body := fmt.Sprintf(`{"graph":%q,"kind":"count","patterns":["0-1 1-2 2-3 3-0","0-1 1-2"],"cuts":[[0,2],[]],"taskLo":%d,"taskHi":%d,"wait":true}`,
				name, r[0], r[1])
			code, part := postQuery(t, ts, body)
			if code != http.StatusOK || part.Status != StatusDone {
				t.Fatalf("%s range %v: code %d, %+v", name, r, code, part)
			}
			rows := part.Result.PerPattern
			hi := new(big.Int).Lsh(new(big.Int).SetUint64(rows[0].CountHi), 64)
			v.Add(v, hi.Add(hi, new(big.Int).SetUint64(rows[0].Count)))
			w += rows[1].Count
			if rows[1].CountHi != 0 || part.Result.Stats.Morphing != nil {
				t.Errorf("%s range %v: rows %+v, morphing %+v; want a plain wedge row and no rewrite", name, r, rows, part.Result.Stats.Morphing)
			}
		}
		if v.Cmp(wantV) != 0 || w != wedge {
			t.Errorf("%s: ranges sum to V %v and %d wedges, want %v and %d", name, v, w, wantV, wedge)
		}
	}
}

// A node refuses, as the client's error, every cuts field it cannot run
// exactly: cuts outside a ranged count, a cut that is not a decomposition
// of its pattern as sent — three-vertex cuts included — rows that do not
// line up, and a cut whose V could overflow on the node's own graph.
func TestCutsRejected(t *testing.T) {
	_, ts, _ := newShardTestServer(t)
	const c4, w4 = `"0-1 1-2 2-3 3-0"`, `"0-1 0-2 0-3 0-4 1-3 1-4 2-3 2-4"`
	ranged := `,"taskLo":0,"taskHi":40,"wait":true}`
	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"a shipped executed set", `{"graph":"whole","kind":"count","patterns":[` + c4 + `,"0-1 1-2"],"cuts":[[0,2],[]]` + ranged, http.StatusOK},
		{"a vertex out of range", `{"graph":"whole","kind":"count","patterns":[` + c4 + `],"cuts":[[0,4]]` + ranged, http.StatusBadRequest},
		{"a negative vertex", `{"graph":"whole","kind":"count","patterns":[` + c4 + `],"cuts":[[-1]]` + ranged, http.StatusBadRequest},
		{"a vertex named twice", `{"graph":"whole","kind":"count","patterns":[` + c4 + `],"cuts":[[2,2]]` + ranged, http.StatusBadRequest},
		{"not a decomposition", `{"graph":"whole","kind":"count","patterns":[` + c4 + `],"cuts":[[0,1]]` + ranged, http.StatusBadRequest},
		{"three cut vertices leaving one component", `{"graph":"whole","kind":"count","patterns":[` + c4 + `],"cuts":[[0,1,2]]` + ranged, http.StatusBadRequest},
		{"W4 at three vertices", `{"graph":"whole","kind":"count","patterns":[` + w4 + `],"cuts":[[0,1,2]]` + ranged, http.StatusOK},
		{"W4, a vertex repeated", `{"graph":"whole","kind":"count","patterns":[` + w4 + `],"cuts":[[0,1,1]]` + ranged, http.StatusBadRequest},
		{"W4 at four vertices", `{"graph":"whole","kind":"count","patterns":[` + w4 + `],"cuts":[[0,1,2,3]]` + ranged, http.StatusBadRequest},
		{"W4, a vertex out of range", `{"graph":"whole","kind":"count","patterns":[` + w4 + `],"cuts":[[0,1,5]]` + ranged, http.StatusBadRequest},
		{"W4, the walked vertex not adjacent", `{"graph":"whole","kind":"count","patterns":[` + w4 + `],"cuts":[[1,2,0]]` + ranged, http.StatusBadRequest},
		{"a component missing the scattered vertex", `{"graph":"whole","kind":"count","patterns":["0-1 0-2 0-3 0-4 1-3 1-4 2-3"],"cuts":[[0,1,2]]` + ranged, http.StatusBadRequest},
		{"fewer cuts than patterns", `{"graph":"whole","kind":"count","patterns":[` + c4 + `,"0-1 1-2"],"cuts":[[0,2]]` + ranged, http.StatusBadRequest},
		{"the pattern form", `{"graph":"whole","kind":"count","pattern":` + c4 + `,"cuts":[[0,2]]` + ranged, http.StatusBadRequest},
		{"a repeated row", `{"graph":"whole","kind":"count","patterns":[` + c4 + `,"0-1 1-2","1-2 0-1"],"cuts":[[0,2],[],[]]` + ranged, http.StatusBadRequest},
		{"vertex-induced", `{"graph":"whole","kind":"count","patterns":[` + c4 + `],"cuts":[[0,2]],"vertexInduced":true` + ranged, http.StatusBadRequest},
		{"a matches query", `{"graph":"whole","kind":"matches","patterns":[` + c4 + `],"cuts":[[0,2]],"stream":true,"taskLo":0,"taskHi":40}`, http.StatusBadRequest},
		{"unranged", `{"graph":"whole","kind":"count","patterns":[` + c4 + `],"cuts":[[0,2]],"wait":true}`, http.StatusBadRequest},
	} {
		code, info := postQuery(t, ts, tc.body)
		if code != tc.code {
			t.Errorf("%s: code %d (%s), want %d", tc.name, code, info.Error, tc.code)
		}
	}

	// The 7-vertex spider at its center on a star of 2¹⁹ leaves: V could
	// reach 2¹⁹·(2¹⁹)⁶, past 128 bits. The 4-path's cut fits the same star,
	// and so does the 4-star's at its center, whose V — (2¹⁹)⁴ + 2¹⁹, the
	// center's tuples and each leaf's — crosses the wire whole: countHi
	// 2¹², count 2¹⁹.
	edges := make([]graph.Edge, 1<<19)
	for i := range edges {
		edges[i] = graph.Edge{Src: 0, Dst: uint32(i + 1)}
	}
	reg := NewRegistry()
	reg.AddGraph("star", "test:star", graph.FromEdges(edges))
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	star := httptest.NewServer(NewServer(ctx, reg).Handler())
	t.Cleanup(star.Close)
	for text, want := range map[string]int{"0-1 1-2 0-3 3-4 0-5 5-6": http.StatusBadRequest, "0-1 1-2 2-3": http.StatusOK} {
		req := Request{Graph: "star", Kind: KindCount, Patterns: []string{text}, Cuts: [][]int{{0}}, TaskLo: 0, TaskHi: 2, Wait: true}
		if text == "0-1 1-2 2-3" {
			req.Cuts = [][]int{{1}}
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		code, info := postQuery(t, star, string(body))
		if code != want || want == http.StatusBadRequest && !strings.Contains(info.Error, "overflow") {
			t.Errorf("%s cut at %v on the star: code %d (%q), want %d", text, req.Cuts[0], code, info.Error, want)
		}
	}
	body := fmt.Sprintf(`{"graph":"star","kind":"count","patterns":["0-1 0-2 0-3 0-4"],"cuts":[[0]],"taskLo":0,"taskHi":%d,"wait":true}`, len(edges)+1)
	code, info := postQuery(t, star, body)
	if code != http.StatusOK || info.Result.PerPattern[0] != (PatternCount{Pattern: "0-1 0-2 0-3 0-4", Count: 1 << 19, CountHi: 1 << 12}) {
		t.Errorf("the 4-star's V on the star: code %d, %+v", code, info.Result)
	}
}
