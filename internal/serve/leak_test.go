package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// TestServeLeavesNoGoroutines runs a kurecd through one quick job to
// completion and a second one cancelled mid-run, then shuts it down:
// the HTTP server, the runner and every runpool worker must be gone,
// so the goroutine count settles back to where it started.
func TestServeLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	srv, err := New(Config{Parallel: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	done := decode[map[string]string](t, post(t, ts, tinyRequest()))["id"]
	if st := pollDone(t, ts, done); st.State != StateDone {
		t.Fatalf("first job = %s (%q), want done", st.State, st.Error)
	}

	id := decode[map[string]string](t, post(t, ts, cancelReq()))["id"]
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decode[Status](t, resp)
		if st.State == StateRunning {
			break
		}
		if st.State.terminal() {
			t.Fatalf("second job reached %s before it could be cancelled; grow cancelReq", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("second job never started running")
		}
	}
	creq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+id, nil)
	cresp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if st := pollTerminal(t, ts, id); st.State != StateCancelled {
		t.Fatalf("second job = %s (%q), want cancelled", st.State, st.Error)
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// Goroutines exit after their last action, so give stragglers a
	// moment to be reaped before counting.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after shutdown, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}
