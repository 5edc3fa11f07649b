package server

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Status is a job lifecycle state.
type Status string

// Job lifecycle states. Terminal states are done, failed, and cancelled.
const (
	StatusPending   Status = "pending"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// JobInfo is the JSON snapshot of a job returned by the API.
type JobInfo struct {
	ID       string     `json:"id"`
	Status   Status     `json:"status"`
	Request  Request    `json:"request"`
	Result   *Result    `json:"result,omitempty"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Finished *time.Time `json:"finished,omitempty"`
}

// JobSummary is one row of GET /v1/jobs: enough for an operator to see
// in-flight work at a glance without shipping each job's full request
// and result payloads.
type JobSummary struct {
	ID       string     `json:"id"`
	Status   Status     `json:"status"`
	Graph    string     `json:"graph"`
	Kind     string     `json:"kind"`
	Created  time.Time  `json:"created"`
	Finished *time.Time `json:"finished,omitempty"`
}

// Job is one asynchronous query execution. The mining itself runs on a
// dedicated goroutine whose engine workers observe the job's context
// through core.Options.Context, so Cancel observably stops them.
type Job struct {
	id     string
	cancel context.CancelFunc
	done   chan struct{}
	stream *MatchStream // non-nil for streaming matches jobs

	mu       sync.Mutex
	status   Status
	req      Request
	result   *Result
	err      error
	created  time.Time
	finished time.Time
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Stream returns the job's match stream, or nil for non-streaming jobs.
func (j *Job) Stream() *MatchStream { return j.stream }

// Cancel requests termination; the engine's workers unwind at their
// next stop-flag check. Cancelling a finished job is a no-op.
func (j *Job) Cancel() { j.cancel() }

// Info snapshots the job for serialization.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:      j.id,
		Status:  j.status,
		Request: j.req,
		Result:  j.result,
		Created: j.created,
	}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	if !j.finished.IsZero() {
		t := j.finished
		info.Finished = &t
	}
	return info
}

// finish records the job's terminal state and returns when it was
// reached.
func (j *Job) finish(res *Result, err error, ctx context.Context) time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.result = res
	switch {
	case err != nil && ctx.Err() != nil:
		// The runner observed the cancellation: its result is truncated.
		// A cancel that lands after a successful run does NOT reach this
		// arm (err is nil), so completed work is still reported done.
		j.status = StatusCancelled
		j.err = ctx.Err()
	case err != nil:
		j.status = StatusFailed
		j.err = err
	default:
		j.status = StatusDone
	}
	return j.finished
}

// Manager tracks all jobs of one server. Submitted jobs run immediately
// on their own goroutine; the engine's own scheduler bounds parallelism
// per query via Request.Threads. A job finished more than the TTL ago is
// gone: every Submit, Get and List first drops such jobs from the map,
// so the map stays bounded under sustained traffic — and an idle server
// that is only being polled still sheds them — without a timer per job.
// A synchronous job (Request.Wait) is gone as soon as it finishes: its
// terminal snapshot is the body of its own POST /v1/query response, so
// the caller holds the answer and nobody has an id to poll. Retention
// is for asynchronous jobs, and no number of synchronous ones evicts one.
type Manager struct {
	base context.Context

	mu       sync.Mutex
	seq      uint64
	ttl      time.Duration
	jobs     map[string]*Job
	finished []finishedJob // in finish order; prune pops the expired heads
}

// finishedJob is the manager's own record of when a job finished, so
// expiry never needs the job's lock.
type finishedJob struct {
	id string
	at time.Time
}

// DefaultJobTTL is how long a finished job stays queryable — the
// default of NewManager and of peregrine-serve's -job-ttl alike. A
// server that never evicts grows with its request count.
const DefaultJobTTL = time.Hour

// NewManager returns a job manager whose jobs are children of base:
// cancelling base (server shutdown) cancels every running job.
func NewManager(base context.Context) *Manager {
	if base == nil {
		base = context.Background()
	}
	return &Manager{base: base, ttl: DefaultJobTTL, jobs: make(map[string]*Job)}
}

// SetTTL sets how long finished jobs remain queryable (default
// DefaultJobTTL); zero keeps them forever. The TTL in force when a job
// is looked up decides, whenever the job finished.
func (m *Manager) SetTTL(d time.Duration) {
	m.mu.Lock()
	m.ttl = d
	m.mu.Unlock()
}

// prune drops the jobs that finished more than the TTL ago. Callers
// hold m.mu.
func (m *Manager) prune(now time.Time) {
	if m.ttl <= 0 {
		return
	}
	n := 0
	for n < len(m.finished) && now.Sub(m.finished[n].at) > m.ttl {
		delete(m.jobs, m.finished[n].id)
		n++
	}
	m.finished = m.finished[n:]
}

// Submit registers a job for req and starts run on its own goroutine.
// run receives the job's context and must honor its cancellation. A
// non-nil st makes it a streaming matches job: st is exposed through
// Job.Stream for GET /v1/jobs/{id}/stream, and run is expected to
// publish matches to it (and close it) as they are found.
func (m *Manager) Submit(req Request, st *MatchStream, run func(ctx context.Context) (*Result, error)) *Job {
	ctx, cancel := context.WithCancel(m.base)
	j := &Job{
		cancel:  cancel,
		done:    make(chan struct{}),
		stream:  st,
		status:  StatusPending,
		req:     req,
		created: time.Now(),
	}
	m.mu.Lock()
	m.prune(j.created)
	m.seq++
	j.id = fmt.Sprintf("job-%d", m.seq)
	m.jobs[j.id] = j
	m.mu.Unlock()

	go func() {
		defer cancel()
		j.mu.Lock()
		j.status = StatusRunning
		j.mu.Unlock()
		res, err := run(ctx)
		at := j.finish(res, err, ctx)
		// Before Done closes: once a waiting submitter has its response,
		// its job's id is already unknown.
		m.mu.Lock()
		if req.Wait {
			delete(m.jobs, j.id)
		} else {
			m.finished = append(m.finished, finishedJob{j.id, at})
		}
		m.mu.Unlock()
		close(j.done)
	}()
	return j
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.prune(time.Now())
	j, ok := m.jobs[id]
	return j, ok
}

// List snapshots every job as a summary row, newest first. Full
// requests and results stay behind GET /v1/jobs/{id}; the listing is
// deliberately light so operators can poll it against a server holding
// large buffered results.
func (m *Manager) List() []JobSummary {
	m.mu.Lock()
	m.prune(time.Now())
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	out := make([]JobSummary, len(jobs))
	for i, j := range jobs {
		info := j.Info()
		out[i] = JobSummary{
			ID:       info.ID,
			Status:   info.Status,
			Graph:    info.Request.Graph,
			Kind:     info.Request.Kind,
			Created:  info.Created,
			Finished: info.Finished,
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Created.After(out[j].Created) })
	return out
}
