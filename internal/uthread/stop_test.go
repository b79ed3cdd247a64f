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

// TestStopStepThreadsLeavesNoGoroutines: step threads hold no
// goroutine, so starting a thousand of them, leaving each parked on an
// access, and stopping them all leaves the goroutine count exactly
// where it was, without waiting for anything to unwind. A stopped step
// never runs again.
func TestStopStepThreadsLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	steps := 0
	threads := make([]*Thread, 1000)
	for i := range threads {
		threads[i] = NewStep(i, func([][]byte) (Request, bool) {
			steps++
			return Request{Kind: KindAccess, Addrs: []uint64{0x40}}, true
		})
		if r := threads[i].Start(); r.Kind != KindAccess {
			t.Fatalf("thread %d: first request %+v, want access", i, r)
		}
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines with 1000 parked step threads, %d before", n, before)
	}
	for _, th := range threads {
		th.Stop()
		if !th.Finished() {
			t.Fatalf("thread %d not Finished after Stop", th.ID())
		}
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after stopping 1000 step threads, %d before", n, before)
	}
	if steps != len(threads) {
		t.Errorf("steps ran %d times, want once per thread", steps)
	}
}

// TestThreadPanicReachesRunCaller: a panic in a thread, resumed by an
// executor that is itself a simulated process, unwinds to the goroutine
// that called Engine.Run — from a step, through the process's
// coroutine; from a coroutine-form body, through both coroutines.
func TestThreadPanicReachesRunCaller(t *testing.T) {
	worked := false
	for _, th := range []*Thread{
		NewStep(0, func([][]byte) (Request, bool) {
			if worked {
				panic("workload bug")
			}
			worked = true
			return Request{Kind: KindWork, Instr: 10}, true
		}),
		New(1, func(a *API) {
			a.Work(10)
			panic("workload bug")
		}),
	} {
		before := runtime.NumGoroutine()
		e := sim.NewEngine()
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
			t.Fatalf("thread %d: recovered %v from Run, want the thread's panic value", th.ID(), got)
		}
		if n := settleGoroutines(before); n > before {
			t.Fatalf("thread %d: %d goroutines after the recovered panic, %d before", th.ID(), n, before)
		}
	}
}
