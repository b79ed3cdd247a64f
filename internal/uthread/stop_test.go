package uthread

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// settleGoroutines waits up to five seconds for the goroutine count to
// fall back to before and returns the last count seen.
func settleGoroutines(before int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestStopUnwindsAbandonedThreads: an executor that gives up on its
// threads — one parked on an access, one never started — stops them.
// The parked body unwinds through its deferred functions without
// receiving data, the unstarted body never runs, both are Finished,
// and no goroutine is left behind.
func TestStopUnwindsAbandonedThreads(t *testing.T) {
	before := runtime.NumGoroutine()
	unwound := false
	parked := New(0, func(a *API) {
		defer func() { unwound = true }()
		a.Access(0x40)
		t.Error("stopped thread resumed past its access")
	})
	ran := false
	unstarted := New(1, func(a *API) { ran = true })

	if r := parked.Start(); r.Kind != KindAccess {
		t.Fatalf("first request = %+v, want access", r)
	}
	parked.Stop()
	unstarted.Stop()
	parked.Stop() // stopping a finished thread is a no-op

	if !unwound {
		t.Error("stopped body did not run its deferred functions")
	}
	if ran {
		t.Error("a thread stopped before Start ran its body")
	}
	if !parked.Finished() || !unstarted.Finished() {
		t.Error("stopped threads are not Finished")
	}
	if n := settleGoroutines(before); n > before {
		t.Fatalf("%d goroutines after Stop, %d before", n, before)
	}
}

// TestThreadPanicReachesRunCaller: a panic in a thread body, resumed by
// an executor that is itself a simulated process, unwinds through both
// coroutines to the goroutine that called Engine.Run.
func TestThreadPanicReachesRunCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	e := sim.NewEngine()
	th := New(0, func(a *API) {
		a.Work(10)
		panic("workload bug")
	})
	e.Go("core0", func(p *sim.Proc) {
		for r := th.Start(); r.Kind != KindDone; r = th.Resume(nil) {
			p.Sleep(sim.Nanosecond)
		}
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if got != "workload bug" {
		t.Fatalf("recovered %v from Run, want the thread body's panic value", got)
	}
	if n := settleGoroutines(before); n > before {
		t.Fatalf("%d goroutines after the recovered panic, %d before", n, before)
	}
}
