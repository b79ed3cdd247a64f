// Package serve implements the kurecd sweep service: a long-running
// HTTP server that accepts run plans, executes them through the
// experiments cell executor (worker pool + shared result cache), and
// serves progress and finished run reports.
//
// The API is deliberately small:
//
//	POST   /v1/runs              enqueue a RunRequest -> 202 + job id
//	GET    /v1/runs/{id}         job status, progress and ETA
//	DELETE /v1/runs/{id}         cancel a queued or running job
//	GET    /v1/runs/{id}/report  the finished report (internal/report JSON)
//	GET    /healthz              liveness (and drain state)
//	GET    /readyz               readiness: 503 before journal replay
//	                             completes and during drain
//	GET    /metrics              Prometheus-style text metrics
//
// Jobs wait in a bounded queue (a full queue answers 429 so callers
// back off) and run one at a time; each job parallelizes internally
// across the executor's workers. All jobs share one result store, so
// a re-submitted plan — or any plan sharing cells with an earlier one
// — is answered largely from cache. Reports produced here are
// byte-identical to what the killerusec CLI writes for the same suite
// and plan.
//
// With a journal configured (kurecd -journal), every job transition is
// written ahead to a fsync'd WAL: a crash — SIGKILL included — loses at
// most the in-flight cell. On boot the journal is replayed, finished
// jobs come back with their reports, and interrupted jobs are
// re-enqueued; with a disk cache (-cachedir) the re-run is warm, so
// only the cells that had not completed are recomputed and the
// recovered report is byte-identical to an uninterrupted run.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/resultstore"
	"repro/internal/sim"
)

// RunRequest is the POST /v1/runs body: a suite selector plus the
// same overrides the killerusec CLI accepts.
type RunRequest struct {
	// Suite is "default" (publication sweep, the default) or "quick".
	Suite string `json:"suite,omitempty"`
	// Experiments lists experiment ids (CLI names: "2".."10", "lfb",
	// "ext-tail", ...). Empty means the full paper plan.
	Experiments []string `json:"experiments,omitempty"`
	// Iterations and AppLookups override the suite's sweep sizes when
	// positive.
	Iterations int `json:"iterations,omitempty"`
	AppLookups int `json:"app_lookups,omitempty"`
	// Threads overrides the thread-per-core sweep when non-empty.
	Threads []int `json:"threads,omitempty"`
	// UseReplay overrides the record/replay methodology when set.
	UseReplay *bool `json:"use_replay,omitempty"`
	// TimeoutSeconds, when positive, is the job's deadline measured
	// from the moment it starts running; a job that exceeds it fails
	// at the next cell boundary.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// Metrics enables the flight recorder for every measured run: the
	// report gains a windowed time series per cell, and sealed windows
	// stream live from GET /v1/runs/{id}/metrics while the job runs.
	// Opt-in, so a plain request's report stays byte-identical to the
	// killerusec CLI's.
	Metrics bool `json:"metrics,omitempty"`
	// MetricsWindowUs overrides the recorder window span in simulated
	// microseconds (default 10). Requires Metrics.
	MetricsWindowUs float64 `json:"metrics_window_us,omitempty"`
	// Attribution enables the per-phase latency ledger for every
	// measured run: the report gains an attribution section plus a
	// per-cell phase breakdown (`kurec blame` renders it). Opt-in and
	// observational — a plain request's report stays byte-identical.
	Attribution bool `json:"attribution,omitempty"`
}

// suite materializes the request's experiment suite.
func (r RunRequest) suite() (experiments.Suite, error) {
	var s experiments.Suite
	switch r.Suite {
	case "", "default":
		s = experiments.Default()
	case "quick":
		s = experiments.Quick()
	default:
		return s, fmt.Errorf("unknown suite %q (want \"default\" or \"quick\")", r.Suite)
	}
	if r.Iterations > 0 {
		s.Iterations = r.Iterations
	}
	if r.AppLookups > 0 {
		s.AppLookups = r.AppLookups
	}
	if len(r.Threads) > 0 {
		s.Threads = append([]int(nil), r.Threads...)
	}
	if r.UseReplay != nil {
		s.UseReplay = *r.UseReplay
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	if r.TimeoutSeconds < 0 || math.IsNaN(r.TimeoutSeconds) || math.IsInf(r.TimeoutSeconds, 0) {
		return s, fmt.Errorf("timeout_seconds %v must be a non-negative finite number", r.TimeoutSeconds)
	}
	if r.MetricsWindowUs < 0 || math.IsNaN(r.MetricsWindowUs) || math.IsInf(r.MetricsWindowUs, 0) {
		return s, fmt.Errorf("metrics_window_us %v must be a non-negative finite number", r.MetricsWindowUs)
	}
	if r.MetricsWindowUs > 0 && !r.Metrics {
		return s, fmt.Errorf("metrics_window_us set but metrics not enabled")
	}
	if r.Metrics {
		windowUs := r.MetricsWindowUs
		if windowUs == 0 {
			windowUs = defaultMetricsWindowUs
		}
		s.Base.MetricsWindow = sim.FromNanoseconds(windowUs * 1e3)
	}
	s.Base.Attribution = r.Attribution
	return s, nil
}

// defaultMetricsWindowUs is the flight-recorder window span when a
// metrics-enabled request does not choose one.
const defaultMetricsWindowUs = 10

// plan resolves the request's experiment ids against the suite; it is
// also the submit-time validation that every id exists.
func (r RunRequest) plan(s experiments.Suite) ([]experiments.Experiment, error) {
	if len(r.Experiments) == 0 {
		return s.PaperPlan(), nil
	}
	var plan []experiments.Experiment
	for _, id := range r.Experiments {
		p := experiments.PlanFor(s, id)
		if p == nil {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		plan = append(plan, p...)
	}
	return plan, nil
}

// JobState is the lifecycle of one enqueued run.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// terminal reports whether a state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// job is the server-side record of one run.
type job struct {
	id  string
	req RunRequest

	// ctx is cancelled by DELETE /v1/runs/{id}; the executor threads
	// it through the experiments plan down to runpool task dispatch,
	// so cancellation takes effect at the next cell boundary.
	ctx    context.Context
	cancel context.CancelFunc

	// hub fans flight-recorder windows out to metrics-stream
	// subscribers; nil unless the request enabled metrics.
	hub *metricsHub

	mu              sync.Mutex
	state           JobState
	cancelRequested bool
	recovered       bool // re-enqueued by journal replay after a crash
	err             string
	stepsTotal      int
	stepsDone       int
	currentStep     string
	enqueued        time.Time
	started         time.Time
	finished        time.Time
	report          []byte
	cells           experiments.ExecStats
	cellsComputed   uint64 // result-store misses attributable to this job
	cellsCached     uint64 // memory + disk hits attributable to this job
}

// Status is the GET /v1/runs/{id} response.
type Status struct {
	ID              string   `json:"id"`
	State           JobState `json:"state"`
	Suite           string   `json:"suite"`
	StepsTotal      int      `json:"steps_total"`
	StepsDone       int      `json:"steps_done"`
	CurrentStep     string   `json:"current_step,omitempty"`
	EnqueuedAt      string   `json:"enqueued_at"`
	StartedAt       string   `json:"started_at,omitempty"`
	FinishedAt      string   `json:"finished_at,omitempty"`
	ETASeconds      float64  `json:"eta_seconds,omitempty"`
	Error           string   `json:"error,omitempty"`
	ReportURL       string   `json:"report_url,omitempty"`
	CancelRequested bool     `json:"cancel_requested,omitempty"`
	Recovered       bool     `json:"recovered,omitempty"`
	CellsComputed   uint64   `json:"cells_computed,omitempty"`
	CellsCached     uint64   `json:"cells_cached,omitempty"`
}

// status snapshots the job under its lock. now is injected so the ETA
// is computed against the caller's clock.
func (j *job) status(now time.Time) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:              j.id,
		State:           j.state,
		Suite:           j.req.Suite,
		StepsTotal:      j.stepsTotal,
		StepsDone:       j.stepsDone,
		CurrentStep:     j.currentStep,
		EnqueuedAt:      j.enqueued.UTC().Format(time.RFC3339),
		Error:           j.err,
		CancelRequested: j.cancelRequested,
		Recovered:       j.recovered,
		CellsComputed:   j.cellsComputed,
		CellsCached:     j.cellsCached,
	}
	if st.Suite == "" {
		st.Suite = "default"
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339)
	}
	if j.state == StateRunning && j.stepsDone > 0 && j.stepsDone < j.stepsTotal {
		perStep := now.Sub(j.started).Seconds() / float64(j.stepsDone)
		st.ETASeconds = perStep * float64(j.stepsTotal-j.stepsDone)
	}
	if j.state == StateDone {
		st.ReportURL = "/v1/runs/" + j.id + "/report"
	}
	return st
}

// Config parameterizes a Server.
type Config struct {
	// Parallel is the worker count of each job's cell executor
	// (minimum 1).
	Parallel int
	// QueueDepth bounds the number of jobs waiting to run (beyond the
	// one running); a full queue answers 429. Minimum 1.
	QueueDepth int
	// CacheEntries bounds the shared in-memory result cache; 0 uses
	// the executor default.
	CacheEntries int
	// CacheDir, when non-empty, adds the on-disk cache layer (stamped
	// per build; see resultstore.OpenStamped).
	CacheDir string
	// Journal, when non-empty, is the path of the durable job journal.
	// Jobs survive crashes: on boot the journal is replayed and
	// interrupted jobs are re-enqueued.
	Journal string
}

// retryWindow is how many recent job durations inform the 429
// Retry-After estimate.
const retryWindow = 8

// Server owns the job queue, the job table, and the shared result
// store. Create with New, mount Handler on an http.Server, stop with
// Drain.
type Server struct {
	parallel int
	store    *resultstore.Store[core.Result]
	journal  *Journal

	mu        sync.Mutex
	jobs      map[string]*job
	order     []string // job ids in submission order, for /metrics
	queue     chan *job
	depth     int // configured queue bound (cap(queue) may exceed it after replay)
	queued    int // jobs currently waiting in queue
	draining  bool
	ready     bool // journal replay complete; flips readyz to 200
	nextID    int
	recovered int             // jobs re-enqueued by replay, for /metrics
	durations []time.Duration // recent job durations, newest last (<= retryWindow)

	runnerDone chan struct{}

	// run executes one job; tests swap it to control timing.
	run func(*job)
	// now is the server's clock; tests may pin it.
	now func() time.Time
}

// New returns a started server (its runner goroutine is consuming the
// queue). When cfg.Journal names a journal, it is replayed first:
// finished jobs are restored with their reports and interrupted jobs
// are re-enqueued ahead of any new submission.
func New(cfg Config) (*Server, error) {
	if cfg.Parallel < 1 {
		cfg.Parallel = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 1
	}
	if cfg.CacheEntries < 1 {
		cfg.CacheEntries = 16384
	}
	var store *resultstore.Store[core.Result]
	var err error
	if cfg.CacheDir != "" {
		store, err = resultstore.OpenStamped[core.Result](cfg.CacheDir, experiments.BuildStamp(), cfg.CacheEntries)
		if err != nil {
			return nil, err
		}
	} else {
		store = resultstore.New[core.Result](cfg.CacheEntries)
	}
	s := &Server{
		parallel:   cfg.Parallel,
		store:      store,
		jobs:       make(map[string]*job),
		depth:      cfg.QueueDepth,
		runnerDone: make(chan struct{}),
		now:        time.Now,
	}
	s.run = s.executeJob

	var pending []*job
	if cfg.Journal != "" {
		journal, entries, err := OpenJournal(cfg.Journal)
		if err != nil {
			return nil, err
		}
		s.journal = journal
		pending = s.restore(entries)
	}
	// The channel is sized so every replayed job fits without blocking;
	// the configured bound is enforced by the queued counter, not the
	// channel capacity.
	s.queue = make(chan *job, cfg.QueueDepth+len(pending))
	for _, j := range pending {
		s.queued++
		s.queue <- j
	}
	s.ready = true
	go s.runner()
	return s, nil
}

// newJob allocates a job with its cancellation context, and its
// metrics hub when the request asked for telemetry.
func newJob(id string, req RunRequest) *job {
	j := &job{id: id, req: req, state: StateQueued}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	if req.Metrics {
		j.hub = newMetricsHub()
	}
	return j
}

// restore rebuilds the job table from replayed journal entries and
// returns the jobs to re-enqueue, in original submission order.
// Terminal jobs are restored in place (done jobs reload their report
// sidecar; a missing or corrupt sidecar demotes the job back to queued
// so the report is regenerated from the cache). Jobs that were queued
// or running at the crash are re-enqueued; jobs whose cancellation was
// requested but never observed become cancelled.
func (s *Server) restore(entries []Entry) []*job {
	for _, e := range entries {
		switch e.T {
		case recSubmit:
			if e.Req == nil || s.jobs[e.ID] != nil {
				continue
			}
			j := newJob(e.ID, *e.Req)
			j.enqueued = e.At
			s.jobs[e.ID] = j
			s.order = append(s.order, e.ID)
			var n int
			if _, err := fmt.Sscanf(e.ID, "job-%d", &n); err == nil && n > s.nextID {
				s.nextID = n
			}
		case recStart:
			if j := s.jobs[e.ID]; j != nil {
				j.state = StateRunning
				j.started = e.At
			}
		case recCancel:
			if j := s.jobs[e.ID]; j != nil {
				j.cancelRequested = true
			}
		case recDone:
			j := s.jobs[e.ID]
			if j == nil {
				continue
			}
			j.state = e.State
			j.err = e.Err
			j.finished = e.At
			if e.State == StateDone {
				if b, ok := s.journal.ReadReport(e.ID, e.SHA); ok {
					j.report = b
				} else {
					// The report bytes did not survive; the job itself
					// did. Re-run it — warm, if a cachedir is configured.
					j.state = StateQueued
					j.err = ""
					j.finished = time.Time{}
				}
			}
		}
	}

	var pending []*job
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state.terminal() {
			j.hub.Close(j.state)
			continue
		}
		if j.cancelRequested {
			// Cancelled before the cancellation could be honored: honor
			// it now instead of re-running work nobody wants.
			j.state = StateCancelled
			j.finished = s.now()
			j.hub.Close(StateCancelled)
			s.appendJournal(Entry{T: recDone, ID: j.id, At: j.finished, State: StateCancelled})
			continue
		}
		j.state = StateQueued
		j.started = time.Time{}
		j.recovered = true
		s.recovered++
		pending = append(pending, j)
	}
	return pending
}

// appendJournal writes a record, surfacing failures on stderr-less
// paths as a server-level best effort: a lost start/done record only
// means the job replays as interrupted and re-runs against the cache.
func (s *Server) appendJournal(e Entry) error {
	return s.journal.Append(e)
}

// runner consumes the queue until Drain closes it. One job runs at a
// time; each job spreads its cells across the executor's workers.
func (s *Server) runner() {
	defer close(s.runnerDone)
	for j := range s.queue {
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
		s.run(j)
		s.recordDuration(j)
	}
}

// recordDuration remembers how long a finished job ran, feeding the
// Retry-After estimate. Jobs without a measured start/finish (skipped
// cancelled jobs, test stubs) are ignored.
func (s *Server) recordDuration(j *job) {
	j.mu.Lock()
	started, finished := j.started, j.finished
	j.mu.Unlock()
	if started.IsZero() || finished.IsZero() || finished.Before(started) {
		return
	}
	s.mu.Lock()
	s.durations = append(s.durations, finished.Sub(started))
	if len(s.durations) > retryWindow {
		s.durations = s.durations[len(s.durations)-retryWindow:]
	}
	s.mu.Unlock()
}

// retryAfterSecondsLocked estimates how long a rejected caller should
// wait before the queue has room: the mean of recent job durations
// times the number of jobs ahead of them (queued plus the one
// running). Falls back to 5 s with no history; clamped to [1 s, 10 m].
// Callers hold s.mu.
func (s *Server) retryAfterSecondsLocked() int {
	if len(s.durations) == 0 {
		return 5
	}
	var sum time.Duration
	for _, d := range s.durations {
		sum += d
	}
	mean := sum / time.Duration(len(s.durations))
	secs := int(math.Ceil(mean.Seconds() * float64(s.queued+1)))
	if secs < 1 {
		secs = 1
	}
	if secs > 600 {
		secs = 600
	}
	return secs
}

// executeJob runs one job to completion, updating its progress as
// plan steps start. A panicking experiment fails the job, not the
// server; a cancelled context lands the job in the cancelled state; an
// exceeded deadline fails it with a deadline error.
func (s *Server) executeJob(j *job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while waiting in queue
		j.mu.Unlock()
		return
	}
	start := s.now()
	j.state = StateRunning
	j.started = start
	timeout := j.req.TimeoutSeconds
	j.mu.Unlock()
	s.appendJournal(Entry{T: recStart, ID: j.id, At: start})

	ctx := j.ctx
	cancelTimeout := func() {}
	if timeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, time.Duration(timeout*float64(time.Second)))
	}
	defer cancelTimeout()

	stats0 := s.store.Stats()
	var exec *experiments.Exec
	finish := func(state JobState, errMsg string, report []byte) {
		now := s.now()
		var sha string
		if state == StateDone {
			// The sidecar is written before the done record: if the done
			// record exists, the report bytes are durable.
			if got, err := s.journal.WriteReport(j.id, report); err == nil {
				sha = got
			}
		}
		stats1 := s.store.Stats()
		j.mu.Lock()
		j.state = state
		j.err = errMsg
		j.report = report
		j.currentStep = ""
		if state == StateDone {
			j.stepsDone = j.stepsTotal
		}
		if exec != nil {
			j.cells = exec.Stats()
		}
		j.cellsComputed = stats1.Misses - stats0.Misses
		j.cellsCached = (stats1.Hits - stats0.Hits) + (stats1.DiskHits - stats0.DiskHits)
		j.finished = now
		j.mu.Unlock()
		j.hub.Close(state)
		s.appendJournal(Entry{T: recDone, ID: j.id, At: now, State: state, Err: errMsg, SHA: sha})
	}
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok {
				switch {
				case errors.Is(err, context.Canceled):
					finish(StateCancelled, "cancelled by client", nil)
					return
				case errors.Is(err, context.DeadlineExceeded):
					finish(StateFailed, fmt.Sprintf("job deadline (%gs) exceeded", timeout), nil)
					return
				}
			}
			finish(StateFailed, fmt.Sprintf("experiment panicked: %v\n%s", r, debug.Stack()), nil)
		}
	}()

	suite, err := j.req.suite()
	if err != nil { // validated at submit; a failure here is a bug
		finish(StateFailed, err.Error(), nil)
		return
	}
	exec = experiments.NewExecCtx(ctx, s.parallel, s.store)
	defer exec.Close()
	suite.Exec = exec
	// Fleet cells shard a lookahead policy's arrival phase over what
	// the cell pool leaves of the machine; reports stay byte-identical
	// (sharding is deterministic), so cached results remain valid.
	suite.FleetShards = experiments.ShardBudget(s.parallel)
	if j.hub != nil {
		// Live telemetry: every computed cell's recorder publishes its
		// sealed windows into the job's hub. Cells answered from cache
		// do not re-simulate, so they stream nothing — the report still
		// carries their full series.
		suite.Base.MetricsSink = j.hub
	}
	plan, err := j.req.plan(suite)
	if err != nil {
		finish(StateFailed, err.Error(), nil)
		return
	}

	j.mu.Lock()
	j.stepsTotal = len(plan)
	j.mu.Unlock()
	tables := experiments.RunPlan(plan, func(i int, id string) {
		// The per-step cancellation point; within a step, queued cells
		// fail fast through the executor's context.
		if err := ctx.Err(); err != nil {
			panic(err)
		}
		j.mu.Lock()
		j.stepsDone = i
		j.currentStep = id
		j.mu.Unlock()
	})
	rep := suite.Report(tables)
	b, err := rep.Encode()
	if err != nil {
		finish(StateFailed, err.Error(), nil)
		return
	}
	finish(StateDone, "", b)
}

// Drain stops accepting jobs, lets the queue run dry (finishing the
// running job and everything already queued), and returns when the
// runner has exited or ctx expires. On a clean drain the journal is
// closed.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	select {
	case <-s.runnerDone:
		return s.journal.Close()
	case <-ctx.Done():
		return fmt.Errorf("serve: drain aborted with jobs outstanding")
	}
}

// Handler returns the server's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/runs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/runs/{id}/metrics", s.handleJobMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// jsonError writes a JSON error body with the given status code.
func jsonError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	// Validate before touching the queue: a bad plan must never
	// occupy a slot.
	suite, err := req.suite()
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, err := req.plan(suite); err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		jsonError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.queued >= s.depth {
		retry := s.retryAfterSecondsLocked()
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		jsonError(w, http.StatusTooManyRequests, "job queue is full")
		return
	}
	s.nextID++
	j := newJob(fmt.Sprintf("job-%04d", s.nextID), req)
	j.enqueued = s.now()
	// Write-ahead: the job exists durably before it is acknowledged or
	// enqueued. A journal failure rejects the submission outright.
	if err := s.appendJournal(Entry{T: recSubmit, ID: j.id, At: j.enqueued, Req: &j.req}); err != nil {
		s.nextID--
		s.mu.Unlock()
		jsonError(w, http.StatusInternalServerError, "journal write failed: %v", err)
		return
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.queued++
	// The send cannot block: only submitters (serialized by s.mu) fill
	// the channel, and queued < depth <= cap was just checked.
	s.queue <- j
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{
		"id":  j.id,
		"url": "/v1/runs/" + j.id,
	})
}

// jobByID looks a job up, answering 404 itself when absent.
func (s *Server) jobByID(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		jsonError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(j.status(s.now()))
}

// handleCancel cancels a queued or running job. A queued job becomes
// cancelled immediately (the runner skips it); a running job has its
// context cancelled and lands in the cancelled state at the next cell
// boundary. Cancelling a terminal job answers 409.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state := j.state
	switch state {
	case StateQueued:
		j.state = StateCancelled
		j.cancelRequested = true
		j.err = "cancelled by client"
		j.finished = s.now()
	case StateRunning:
		j.cancelRequested = true
	default:
		j.mu.Unlock()
		jsonError(w, http.StatusConflict, "job is %s; nothing to cancel", state)
		return
	}
	j.mu.Unlock()
	j.cancel()
	if state == StateQueued {
		j.hub.Close(StateCancelled)
		s.appendJournal(Entry{T: recDone, ID: j.id, At: s.now(), State: StateCancelled, Err: "cancelled by client"})
	} else {
		s.appendJournal(Entry{T: recCancel, ID: j.id, At: s.now()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(j.status(s.now()))
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state, report, errMsg := j.state, j.report, j.err
	j.mu.Unlock()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(report)
	case StateFailed:
		jsonError(w, http.StatusConflict, "job failed: %s", errMsg)
	case StateCancelled:
		jsonError(w, http.StatusConflict, "job was cancelled; no report")
	default:
		jsonError(w, http.StatusConflict, "job is %s; report not ready", state)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": status})
}

// handleReadyz is the load-balancer signal: 503 before journal replay
// has completed and from the moment a drain starts, so routing stops
// before SIGTERM kills the listener. Liveness stays on /healthz.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ready, draining := s.ready, s.draining
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	switch {
	case draining:
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
	case !ready:
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "starting"})
	default:
		json.NewEncoder(w).Encode(map[string]string{"status": "ready"})
	}
}

// handleMetrics serves the Prometheus text endpoint. Lines are
// emitted in sorted order so two scrapes of an idle server are
// byte-identical — scrape diffing and text-based alert tests can rely
// on it. Jobs with a metrics hub add per-job labeled gauges for their
// stream: windows published, live subscribers, records dropped to
// slow consumers, and the last sealed window's p99.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	counts := map[JobState]int{}
	var dedup uint64
	var distinct int
	var lines []string
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		counts[j.state]++
		dedup += j.cells.Dedup
		distinct += j.cells.Cells
		j.mu.Unlock()
		if j.hub != nil {
			windows, subscribers, dropped, lastP99 := j.hub.stats()
			lines = append(lines,
				fmt.Sprintf("kurecd_job_stream_windows_total{job=%q} %d", id, windows),
				fmt.Sprintf("kurecd_job_stream_subscribers{job=%q} %d", id, subscribers),
				fmt.Sprintf("kurecd_job_stream_dropped_total{job=%q} %d", id, dropped),
				fmt.Sprintf("kurecd_job_last_p99_ns{job=%q} %g", id, lastP99),
			)
		}
	}
	depth := s.queued
	capacity := s.depth
	recovered := s.recovered
	draining := 0
	if s.draining {
		draining = 1
	}
	ready := 0
	if s.ready && !s.draining {
		ready = 1
	}
	s.mu.Unlock()
	cs := s.store.Stats()

	for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		lines = append(lines, fmt.Sprintf("kurecd_jobs{state=%q} %d", st, counts[st]))
	}
	lines = append(lines,
		fmt.Sprintf("kurecd_queue_depth %d", depth),
		fmt.Sprintf("kurecd_queue_capacity %d", capacity),
		fmt.Sprintf("kurecd_draining %d", draining),
		fmt.Sprintf("kurecd_ready %d", ready),
		fmt.Sprintf("kurecd_recovered_jobs %d", recovered),
		fmt.Sprintf("kurecd_cells_distinct_total %d", distinct),
		fmt.Sprintf("kurecd_cells_deduped_total %d", dedup),
		fmt.Sprintf("kurecd_cache_entries %d", cs.Entries),
		fmt.Sprintf("kurecd_cache_hits_total %d", cs.Hits),
		fmt.Sprintf("kurecd_cache_disk_hits_total %d", cs.DiskHits),
		fmt.Sprintf("kurecd_cache_misses_total %d", cs.Misses),
	)
	sort.Strings(lines)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, line := range lines {
		fmt.Fprintln(w, line)
	}
}
