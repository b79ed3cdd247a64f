package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// tinyRequest is a run request small enough to execute for real in a
// unit test (one figure, reduced sweep).
func tinyRequest() RunRequest {
	return RunRequest{
		Suite:       "quick",
		Experiments: []string{"2"},
		Iterations:  100,
		Threads:     []int{1, 2},
	}
}

func post(t *testing.T, ts *httptest.Server, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// pollDone polls a job's status until it leaves the queue/run states.
func pollDone(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decode[Status](t, resp)
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Status{}
}

// TestEndToEnd drives the full happy path: enqueue, poll to
// completion, fetch the report — and checks the served bytes are
// identical to what the experiments package produces directly for the
// same request (the CLI/server identity guarantee).
func TestEndToEnd(t *testing.T) {
	srv, err := New(Config{Parallel: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := post(t, ts, tinyRequest())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	accepted := decode[map[string]string](t, resp)
	id := accepted["id"]
	if id == "" {
		t.Fatal("no job id in submit response")
	}

	st := pollDone(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("job state = %s (error %q), want done", st.State, st.Error)
	}
	if st.StepsDone != st.StepsTotal || st.StepsTotal == 0 {
		t.Fatalf("steps = %d/%d, want all done", st.StepsDone, st.StepsTotal)
	}
	if st.ReportURL == "" {
		t.Fatal("done job has no report URL")
	}

	rresp, err := http.Get(ts.URL + st.ReportURL)
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d, want 200", rresp.StatusCode)
	}
	got, err := io.ReadAll(rresp.Body)
	if err != nil {
		t.Fatal(err)
	}

	// The same request through the experiments package must produce
	// the same bytes.
	req := tinyRequest()
	suite, err := req.suite()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := req.plan(suite)
	if err != nil {
		t.Fatal(err)
	}
	want, err := suite.Report(experiments.RunPlan(plan, nil)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("served report differs from direct report (%d vs %d bytes)", len(got), len(want))
	}

	// The metrics endpoint reflects the finished job.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mb)
	for _, want := range []string{
		`kurecd_jobs{state="done"} 1`,
		"kurecd_queue_capacity 4",
		"kurecd_cache_misses_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestUnknownJobIs404(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/v1/runs/job-9999", "/v1/runs/job-9999/report"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestBadRequestsRejectedAtSubmit(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []RunRequest{
		{Suite: "publication"},                           // unknown suite
		{Suite: "quick", Experiments: []string{"fig99"}}, // unknown experiment
		{Suite: "quick", Threads: []int{0}},              // invalid sweep
	}
	for i, req := range cases {
		resp := post(t, ts, req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400", i, resp.StatusCode)
		}
	}
}

// TestQueueBackpressure fills the queue behind a blocked runner and
// checks the next submission is answered 429 without being recorded.
func TestQueueBackpressure(t *testing.T) {
	srv, err := New(Config{QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan string, 8)
	release := make(chan struct{})
	srv.run = func(j *job) {
		j.mu.Lock()
		j.state = StateRunning
		j.mu.Unlock()
		started <- j.id
		<-release
		j.mu.Lock()
		j.state = StateDone
		j.mu.Unlock()
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(release)

	// First job: picked up by the runner, which blocks.
	r1 := post(t, ts, tinyRequest())
	r1.Body.Close()
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1 status = %d", r1.StatusCode)
	}
	<-started
	// Second job: sits in the queue (depth 1).
	r2 := post(t, ts, tinyRequest())
	r2.Body.Close()
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2 status = %d", r2.StatusCode)
	}
	// Third job: queue full -> 429 with Retry-After.
	r3 := post(t, ts, tinyRequest())
	body := decode[map[string]string](t, r3)
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3 status = %d, want 429", r3.StatusCode)
	}
	if r3.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if body["error"] == "" {
		t.Error("429 without error body")
	}
}

// TestGracefulDrain: during a drain, new submissions get 503, already
// queued jobs still finish, and Drain returns once the queue is dry.
func TestGracefulDrain(t *testing.T) {
	srv, err := New(Config{QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan string, 8)
	release := make(chan struct{})
	srv.run = func(j *job) {
		j.mu.Lock()
		j.state = StateRunning
		j.mu.Unlock()
		started <- j.id
		<-release
		j.mu.Lock()
		j.state = StateDone
		j.mu.Unlock()
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One running (blocked) + one queued.
	r1 := post(t, ts, tinyRequest())
	r1.Body.Close()
	<-started
	r2 := post(t, ts, tinyRequest())
	id2 := decode[map[string]string](t, r2)["id"]

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()

	// Wait until the drain flag is visible, then check 503 + healthz.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		h := decode[map[string]string](t, resp)
		if h["status"] == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	r3 := post(t, ts, tinyRequest())
	r3.Body.Close()
	if r3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", r3.StatusCode)
	}

	// Unblock the jobs; the drain must complete and the queued job
	// must have run.
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + id2)
	if err != nil {
		t.Fatal(err)
	}
	st := decode[Status](t, resp)
	if st.State != StateDone {
		t.Fatalf("queued job state after drain = %s, want done", st.State)
	}
}

// TestFailedJobSurfacesError drives the real executeJob down its
// failure path (the request is corrupted after submit-time validation,
// standing in for any mid-run failure) and checks the job reports
// failed, carries the error, and answers the report endpoint with 409.
func TestFailedJobSurfacesError(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.run = func(j *job) {
		j.req.Suite = "corrupted-after-validation"
		srv.executeJob(j)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	r := post(t, ts, tinyRequest())
	id := decode[map[string]string](t, r)["id"]
	st := pollDone(t, ts, id)
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "unknown suite") {
		t.Errorf("error = %q, want the underlying failure", st.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("report of failed job = %d, want 409", resp.StatusCode)
	}
}

// --- PR 6: cancellation, readiness, journal recovery, warm resume ---

// cancelReq is a request big enough to still be running when the test
// cancels it, but whose cells are small enough to keep the cancel
// latency (one cell boundary) tiny.
func cancelReq() RunRequest {
	return RunRequest{
		Suite:       "quick",
		Experiments: []string{"2", "3", "7"},
		Iterations:  2000,
		Threads:     []int{1, 2, 4, 8},
	}
}

// TestCancelRunningJob cancels a job mid-sweep and asserts it lands in
// the terminal cancelled state within one cell boundary, visible via
// the status endpoint, with the report answering 409.
func TestCancelRunningJob(t *testing.T) {
	srv, err := New(Config{Parallel: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := post(t, ts, cancelReq())
	id := decode[map[string]string](t, resp)["id"]

	// Wait for the job to actually be running.
	deadline := time.Now().Add(30 * time.Second)
	for {
		sresp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decode[Status](t, sresp)
		if st.State == StateRunning {
			break
		}
		if st.State.terminal() {
			t.Fatalf("job reached %s before it could be cancelled; grow cancelReq", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}

	cancelAt := time.Now()
	creq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+id, nil)
	cresp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	st := decode[Status](t, cresp)
	if cresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d, want 202", cresp.StatusCode)
	}
	if !st.CancelRequested {
		t.Error("cancel response does not show cancel_requested")
	}

	final := pollTerminal(t, ts, id)
	elapsed := time.Since(cancelAt)
	if final.State != StateCancelled {
		t.Fatalf("state = %s (err %q), want cancelled", final.State, final.Error)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want < 2s (one cell boundary)", elapsed)
	}
	rresp, err := http.Get(ts.URL + "/v1/runs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Errorf("report of cancelled job = %d, want 409", rresp.StatusCode)
	}

	// Cancelling a terminal job answers 409.
	creq2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+id, nil)
	cresp2, err := http.DefaultClient.Do(creq2)
	if err != nil {
		t.Fatal(err)
	}
	cresp2.Body.Close()
	if cresp2.StatusCode != http.StatusConflict {
		t.Errorf("second cancel = %d, want 409", cresp2.StatusCode)
	}
}

// pollTerminal polls until the job reaches any terminal state.
func pollTerminal(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decode[Status](t, resp)
		if st.State.terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Status{}
}

// TestCancelQueuedJob: a job cancelled while waiting in the queue
// becomes cancelled immediately and the runner skips it entirely.
func TestCancelQueuedJob(t *testing.T) {
	srv, err := New(Config{QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan string, 8)
	release := make(chan struct{})
	executed := make(chan string, 8)
	srv.run = func(j *job) {
		j.mu.Lock()
		if j.state != StateQueued {
			j.mu.Unlock()
			return // skipped: cancelled in queue
		}
		j.state = StateRunning
		j.mu.Unlock()
		executed <- j.id
		started <- j.id
		<-release
		j.mu.Lock()
		j.state = StateDone
		j.mu.Unlock()
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(release)

	r1 := post(t, ts, tinyRequest())
	r1.Body.Close()
	<-started
	r2 := post(t, ts, tinyRequest())
	id2 := decode[map[string]string](t, r2)["id"]

	creq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+id2, nil)
	cresp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	st := decode[Status](t, cresp)
	if st.State != StateCancelled {
		t.Fatalf("queued job after cancel = %s, want cancelled immediately", st.State)
	}
	select {
	case id := <-executed:
		if id == id2 {
			t.Error("runner executed a cancelled job")
		}
	default:
	}
}

// TestJobDeadline: a job whose timeout_seconds elapses mid-run fails
// with a deadline error at the next cell boundary.
func TestJobDeadline(t *testing.T) {
	srv, err := New(Config{Parallel: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := cancelReq()
	// cancelReq's job can finish inside 50 ms on an idle host; this one
	// runs for about a second, so the deadline always falls mid-run.
	req.Iterations = 60000
	req.TimeoutSeconds = 0.05
	resp := post(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	id := decode[map[string]string](t, resp)["id"]
	st := pollTerminal(t, ts, id)
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Errorf("error = %q, want a deadline message", st.Error)
	}
}

// TestBadTimeoutRejected: negative deadlines are submit-time 400s.
func TestBadTimeoutRejected(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp := post(t, ts, RunRequest{Suite: "quick", TimeoutSeconds: -1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative timeout = %d, want 400", resp.StatusCode)
	}
}

// TestReadyz: ready while serving, 503 before boot completes and
// during a drain; /healthz stays liveness-only (200 while draining).
func TestReadyz(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, map[string]string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		return code, decode[map[string]string](t, resp)
	}

	if code, body := get("/readyz"); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz = %d %v, want 200 ready", code, body)
	}

	// Before replay completes the server reports starting. New()
	// finishes replay before returning, so rewind the flag to assert
	// the contract the boot path relies on.
	srv.mu.Lock()
	srv.ready = false
	srv.mu.Unlock()
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body["status"] != "starting" {
		t.Fatalf("readyz before replay = %d %v, want 503 starting", code, body)
	}
	srv.mu.Lock()
	srv.ready = true
	srv.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("readyz during drain = %d %v, want 503 draining", code, body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || body["status"] != "draining" {
		t.Fatalf("healthz during drain = %d %v, want 200 draining (liveness only)", code, body)
	}
}

// TestRetryAfterAdaptive: with observed job durations, the 429
// Retry-After scales with recent duration x jobs ahead instead of the
// old hardcoded 5.
func TestRetryAfterAdaptive(t *testing.T) {
	srv, err := New(Config{QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan string, 8)
	release := make(chan struct{})
	base := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	srv.now = func() time.Time { return base }
	srv.run = func(j *job) {
		j.mu.Lock()
		j.state = StateRunning
		j.started = base
		j.mu.Unlock()
		started <- j.id
		<-release
		j.mu.Lock()
		j.state = StateDone
		j.finished = base.Add(90 * time.Second) // every observed job "takes" 90s
		j.mu.Unlock()
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Complete one job so a duration is observed.
	r1 := post(t, ts, tinyRequest())
	r1.Body.Close()
	<-started
	release <- struct{}{}

	// Block the runner again, fill the queue, overflow it.
	r2 := post(t, ts, tinyRequest())
	r2.Body.Close()
	<-started
	r3 := post(t, ts, tinyRequest())
	r3.Body.Close()
	r4 := post(t, ts, tinyRequest())
	defer r4.Body.Close()
	if r4.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow = %d, want 429", r4.StatusCode)
	}
	// One queued + one running ahead, mean duration 90s -> 180s.
	if got := r4.Header.Get("Retry-After"); got != "180" {
		t.Errorf("Retry-After = %q, want 180 (90s mean x 2 jobs ahead)", got)
	}
	close(release)
}

// TestJournalRecovery exercises the full replay matrix in-process: a
// done job keeps its report, a running job is re-enqueued and re-run,
// a queued job is re-enqueued, and a cancel-requested job becomes
// cancelled — across a simulated process boundary (two servers over
// one journal).
func TestJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "kurecd.wal")

	srv1, err := New(Config{Parallel: 2, QueueDepth: 8, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())

	// Job 1 completes for real.
	r1 := post(t, ts1, tinyRequest())
	id1 := decode[map[string]string](t, r1)["id"]
	st1 := pollDone(t, ts1, id1)
	if st1.State != StateDone {
		t.Fatalf("job 1 = %s", st1.State)
	}
	rresp, err := http.Get(ts1.URL + st1.ReportURL)
	if err != nil {
		t.Fatal(err)
	}
	report1, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()

	// Swap in a blocking runner for the remaining jobs so they are
	// mid-flight when the "process" dies. Once block is released at
	// test end the dead process must stay dead: its runner returns
	// without touching job state or the shared journal, so it cannot
	// race srv2 or the temp-dir cleanup.
	started := make(chan string, 8)
	block := make(chan struct{})
	srv1.run = func(j *job) {
		select {
		case <-block:
			return
		default:
		}
		j.mu.Lock()
		if j.state != StateQueued {
			j.mu.Unlock()
			return
		}
		j.state = StateRunning
		j.mu.Unlock()
		srv1.appendJournal(Entry{T: recStart, ID: j.id, At: srv1.now()})
		started <- j.id
		<-block // SIGKILL: never finishes
	}
	r2 := post(t, ts1, tinyRequest())
	id2 := decode[map[string]string](t, r2)["id"] // will be "running" at crash
	<-started
	r3 := post(t, ts1, tinyRequest())
	id3 := decode[map[string]string](t, r3)["id"] // queued at crash
	r4 := post(t, ts1, tinyRequest())
	id4 := decode[map[string]string](t, r4)["id"] // queued + cancel requested
	creq, _ := http.NewRequest(http.MethodDelete, ts1.URL+"/v1/runs/"+id4, nil)
	cresp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()

	// "Crash": abandon srv1 without draining (the runner goroutine
	// stays parked on block; the journal file is shared).
	ts1.Close()

	srv2, err := New(Config{Parallel: 2, QueueDepth: 8, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer close(block)
	// Registered after t.TempDir, so it runs before the directory is
	// removed: srv2 must finish every job and close its journal first.
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv2.Drain(ctx); err != nil {
			t.Errorf("drain srv2: %v", err)
		}
	})

	// Done job: restored with byte-identical report, not re-run.
	st := pollDone(t, ts2, id1)
	if st.State != StateDone || st.Recovered {
		t.Fatalf("job 1 after replay = %+v, want done and not re-enqueued", st)
	}
	rresp2, err := http.Get(ts2.URL + "/v1/runs/" + id1 + "/report")
	if err != nil {
		t.Fatal(err)
	}
	report1b, _ := io.ReadAll(rresp2.Body)
	rresp2.Body.Close()
	if !bytes.Equal(report1, report1b) {
		t.Error("restored report differs from the original")
	}

	// Interrupted running job: re-enqueued, re-run, completes with a
	// report identical to job 1's (same request).
	st2 := pollDone(t, ts2, id2)
	if st2.State != StateDone {
		t.Fatalf("job 2 after replay = %s (err %q)", st2.State, st2.Error)
	}
	if !st2.Recovered {
		t.Error("re-run job not marked recovered")
	}
	// Queued job: also recovered and completed.
	st3 := pollDone(t, ts2, id3)
	if st3.State != StateDone || !st3.Recovered {
		t.Fatalf("job 3 after replay = %+v", st3)
	}
	// Cancel-requested job: honored, not re-run.
	st4 := pollTerminal(t, ts2, id4)
	if st4.State != StateCancelled {
		t.Fatalf("job 4 after replay = %s, want cancelled", st4.State)
	}

	// New submissions continue past the replayed id space.
	r5 := post(t, ts2, tinyRequest())
	id5 := decode[map[string]string](t, r5)["id"]
	if id5 != "job-0005" {
		t.Errorf("post-replay id = %s, want job-0005", id5)
	}
	if st5 := pollDone(t, ts2, id5); st5.State != StateDone {
		t.Fatalf("job 5 = %s (err %q)", st5.State, st5.Error)
	}
}

// TestWarmResumeFromDiskCache: a journal+cachedir restart re-runs an
// interrupted job warm — the resumed run's report is byte-identical
// and its status shows cache hits (only missing cells recompute).
func TestWarmResumeFromDiskCache(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "kurecd.wal")
	cachedir := filepath.Join(dir, "cache")

	srv1, err := New(Config{Parallel: 2, QueueDepth: 4, Journal: journal, CacheDir: cachedir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	r1 := post(t, ts1, tinyRequest())
	id := decode[map[string]string](t, r1)["id"]
	st := pollDone(t, ts1, id)
	if st.State != StateDone {
		t.Fatalf("first run = %s", st.State)
	}
	if st.CellsComputed == 0 {
		t.Fatalf("first run computed no cells: %+v", st)
	}
	rresp, err := http.Get(ts1.URL + st.ReportURL)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	ts1.Close()

	// Simulate a crash that lost the done record and the sidecar: the
	// job replays as interrupted and must be re-run — warm.
	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
	trimmed := bytes.Join(lines[:len(lines)-1], []byte("\n")) // drop the done record
	if err := os.WriteFile(journal, append(trimmed, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(Config{Parallel: 2, QueueDepth: 4, Journal: journal, CacheDir: cachedir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	st2 := pollDone(t, ts2, id)
	if st2.State != StateDone || !st2.Recovered {
		t.Fatalf("resumed run = %+v, want done+recovered", st2)
	}
	if st2.CellsCached == 0 {
		t.Errorf("resumed run hit no cached cells: %+v", st2)
	}
	rresp2, err := http.Get(ts2.URL + "/v1/runs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(rresp2.Body)
	rresp2.Body.Close()
	if !bytes.Equal(want, got) {
		t.Errorf("resumed report differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}
