package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"peregrine"
	"peregrine/internal/graph"
)

// maxBodyBytes bounds POST bodies; patterns and parameters are tiny.
const maxBodyBytes = 1 << 20

// Server wires the graph registry and job manager behind the HTTP API:
//
//	POST   /v1/query            submit a query (Wait: true blocks for the result)
//	GET    /v1/jobs             list job summaries, newest first
//	GET    /v1/jobs/{id}        poll one job
//	GET    /v1/jobs/{id}/stream consume a streaming matches job as NDJSON
//	DELETE /v1/jobs/{id}        cancel a job, stopping its engine workers
//	GET    /v1/graphs           list registered graphs
//	GET    /v1/stats            server-wide counters (coalescing, plan cache, registry)
//	GET    /healthz             liveness probe
//
// Concurrent count queries against the same graph are coalesced: an
// admission layer merges requests arriving within a micro-batch window
// into one shared trie traversal and demultiplexes per-request results
// (see coalesce.go).
type Server struct {
	registry *Registry
	jobs     *Manager

	// plans is this server's own plan cache: two servers in one
	// process (tests, multi-tenant embedders) don't share eviction
	// pressure or stats through the package-global default cache.
	plans *peregrine.PlanCache

	// coalescer micro-batches concurrent count queries per graph into
	// merged traversals (see coalesce.go). Always non-nil; a zero
	// window makes admission pass straight through.
	coalescer *Coalescer

	// streamAttachTimeout (nanoseconds) cancels a streaming job whose
	// NDJSON stream was never consumed: its workers park on the full
	// stream channel and would otherwise pin goroutines and the graph
	// until an explicit DELETE. Zero disables the watchdog. Atomic so
	// it can be reconfigured while requests are in flight.
	streamAttachTimeout atomic.Int64
}

// DefaultStreamAttachTimeout is how long a streaming job waits for its
// stream consumer before being cancelled.
const DefaultStreamAttachTimeout = time.Minute

// NewServer returns a server over reg whose jobs descend from base:
// cancelling base aborts every running query (graceful shutdown).
func NewServer(base context.Context, reg *Registry) *Server {
	s := &Server{registry: reg, jobs: NewManager(base), plans: peregrine.NewPlanCache(0)}
	s.coalescer = NewCoalescer(base, CoalesceConfig{Window: DefaultCoalesceWindow}, reg.With)
	s.streamAttachTimeout.Store(int64(DefaultStreamAttachTimeout))
	return s
}

// SetCoalescing reconfigures the micro-batching admission layer
// (-coalesce-window); a zero window disables it.
func (s *Server) SetCoalescing(cfg CoalesceConfig) { s.coalescer.SetConfig(cfg) }

// PlanCache exposes the server's plan cache (stats, tests).
func (s *Server) PlanCache() *peregrine.PlanCache { return s.plans }

// SetStreamAttachTimeout overrides the stream-consumer watchdog
// (mainly for tests); 0 disables it.
func (s *Server) SetStreamAttachTimeout(d time.Duration) { s.streamAttachTimeout.Store(int64(d)) }

// Registry exposes the server's graph registry for startup registration.
func (s *Server) Registry() *Registry { return s.registry }

// Jobs exposes the job manager, mainly for tests.
func (s *Server) Jobs() *Manager { return s.jobs }

// Handler returns the API routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/graphs", s.handleGraphs)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// handleQuery validates the request synchronously — malformed bodies,
// bad patterns (400), and unknown graphs (404) fail before a job is
// created — then runs the mine asynchronously, or to completion when
// the request sets Wait. A waited job's response is its terminal
// snapshot, and the job is not kept after it (see Manager).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	q, err := compile(req, s.plans)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.registry.Has(req.Graph) {
		writeError(w, http.StatusNotFound, "%v: %q", ErrUnknownGraph, req.Graph)
		return
	}
	if len(req.Cuts) > 0 {
		// A cut whose V could overflow on this node's graph is the
		// sender's error — it planned for another graph — so it is a 400
		// here, not a failed job. This loads the graph in the POST, as a
		// shipped executed set's sender, a coordinator, waits anyway. A
		// failed load is left to the job, which reports it.
		var fit error
		if s.registry.With(req.Graph, func(g *graph.Graph) error { fit = q.prepared.CutsFit(g); return nil }) == nil && fit != nil {
			writeError(w, http.StatusBadRequest, "%v", fit)
			return
		}
	}

	// The graph is resolved inside the job so a slow first load (large
	// edge-list file) does not block the POST: async clients get their
	// 202 immediately and load failures surface as failed jobs.
	// Registry.With pins the graph for the job's whole run — the memory
	// budget can never evict (and unmap) a graph under an in-flight
	// query.
	//
	// Count queries go through the coalescer, the server's one count
	// executor: it pins the graph once per merged batch, and the job's
	// context cancellation detaches just this request from its batch
	// (co-batched requests are unaffected).
	run := func(ctx context.Context) (*Result, error) {
		if req.Kind == KindCount {
			return s.coalescer.Do(ctx, q)
		}
		var res *Result
		ran := false
		err := s.registry.With(req.Graph, func(g *graph.Graph) (err error) {
			ran = true
			res, err = q.run(ctx, g)
			return err
		})
		if !ran && q.stream != nil {
			close(q.stream.ch) // never mined: unblock a waiting stream consumer
		}
		return res, err
	}
	job := s.jobs.Submit(req, q.stream, run)
	if q.stream != nil {
		if d := time.Duration(s.streamAttachTimeout.Load()); d > 0 {
			time.AfterFunc(d, func() {
				select {
				case <-job.Done():
					// Finished: no workers are parked on the channel, and
					// its buffered rows stay deliverable to a late consumer
					// until the job's TTL — leave the stream unclaimed.
					return
				default:
				}
				// Winning the claim proves no consumer ever arrived, so
				// cancelling can't kill a live stream. The claim is
				// watchdog-flavored: once the job is terminal, a late
				// consumer may still reclaim it and drain the buffer.
				if q.stream.watchdogClaim() {
					job.Cancel()
				}
			})
		}
	}
	if !req.Wait {
		writeJSON(w, http.StatusAccepted, job.Info())
		return
	}
	select {
	case <-job.Done():
		writeJSON(w, http.StatusOK, job.Info())
	case <-r.Context().Done():
		// Client gave up on a synchronous query: abort its mine too.
		job.Cancel()
		<-job.Done()
		writeJSON(w, http.StatusOK, job.Info())
	}
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.List())
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.Info())
}

// handleJobStream attaches to a streaming matches job and relays its
// matches as NDJSON, one object per line, flushed per row so clients
// see matches as the engine finds them. The stream ends with a
// StreamEnd row carrying the job's final status. Exactly one consumer
// may attach; a dropped client cancels the job so its workers stop
// promptly instead of mining into a dead socket.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	st := job.Stream()
	if st == nil {
		writeError(w, http.StatusBadRequest,
			"job %q has no match stream; submit a matches query with \"stream\": true", job.ID())
		return
	}
	if !st.attach() {
		// The watchdog's claim is not consumption: it implies the job
		// was just cancelled, so termination is imminent and the
		// buffered rows stay deliverable — wait it out and reclaim
		// rather than 409 a consumer that raced the stop flag. A claim
		// held by a real consumer is the only genuine conflict.
		if !st.watchdogClaimed() {
			writeError(w, http.StatusConflict, "stream for job %q already consumed", job.ID())
			return
		}
		<-job.Done()
		if !st.reclaim() {
			writeError(w, http.StatusConflict, "stream for job %q already consumed", job.ID())
			return
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers out now: the first match may be minutes away
		// on a big mine, and an unflushed 200 looks like a hang to the
		// client and to proxies in between.
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	var relayed uint64
	closed := false
	for !closed {
		select {
		case row, open := <-st.ch:
			if !open {
				closed = true
				break
			}
			if err := enc.Encode(row); err != nil {
				job.Cancel()
				return
			}
			relayed++
			// Relay everything already buffered before flushing: one
			// flush per ready batch, not one write syscall per match,
			// while the blocking select above keeps first-row latency.
		drain:
			for {
				select {
				case row, open := <-st.ch:
					if !open {
						closed = true
						break drain
					}
					if err := enc.Encode(row); err != nil {
						job.Cancel()
						return
					}
					relayed++
				default:
					break drain
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			job.Cancel()
			return
		}
	}
	// Mining finished and drained; report the terminal state. Count is
	// the rows this stream actually carried — on a cancelled job that
	// is the drained backlog, not the engine's racy found-before-stop
	// tally.
	<-job.Done()
	info := job.Info()
	end := StreamEnd{Done: true, Status: info.Status, Count: relayed, Error: info.Error}
	_ = enc.Encode(end)
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, job.Info())
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.registry.List())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
