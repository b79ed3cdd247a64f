package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/uthread"
)

// panickyWorkload is the microbenchmark with one thread whose step
// panics after a few accesses, while its siblings and the other cores
// are waiting mid-run.
type panickyWorkload struct{ Workload }

func (w panickyWorkload) Body(coreID, threadID, threadsPerCore int) uthread.Step {
	if coreID != 1 || threadID != 2 {
		return w.Workload.Body(coreID, threadID, threadsPerCore)
	}
	var addr [1]uint64
	i := 0
	return func([][]byte) (uthread.Request, bool) {
		if i == 3 {
			panic("workload body bug")
		}
		addr[0] = uint64(i) * 64
		i++
		return uthread.Request{Kind: uthread.KindAccess, Addrs: addr[:]}, true
	}
}

// TestPanickingRunLeavesNoGoroutines: a workload step that panics
// reaches the caller of the run through its core's scheduler, and
// launch's teardown leaves no goroutine behind it.
func TestPanickingRunLeavesNoGoroutines(t *testing.T) {
	cfg := platform.Default()
	cfg.Cores = 2
	w := panickyWorkload{ubench(testIters)}
	for _, mech := range []struct {
		name string
		run  func(platform.Config, Workload, int, bool) (Result, error)
	}{{"prefetch", RunPrefetch}, {"swqueue", RunSWQueue}, {"kernelq", RunKernelQueue}} {
		name := mech.name
		before := runtime.NumGoroutine()
		got := func() (r any) {
			defer func() { r = recover() }()
			mech.run(cfg, w, 4, false)
			return nil
		}()
		if got != "workload body bug" {
			t.Fatalf("%s: recovered %v, want the step's panic", name, got)
		}
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > before {
			t.Fatalf("%s: %d goroutines after the panicking run, %d before", name, n, before)
		}
	}
}

// lostWakeupWorkload gives core 0 a thread that only computes and core
// 1 a thread that reads one device line.
type lostWakeupWorkload struct{ Workload }

func (w lostWakeupWorkload) Body(coreID, threadID, threadsPerCore int) uthread.Step {
	reqs := []uthread.Request{{Kind: uthread.KindWork, Instr: 100}}
	if coreID == 1 {
		reqs = append([]uthread.Request{{Kind: uthread.KindAccess, Addrs: []uint64{0x1000}}}, reqs...)
	}
	return func([][]byte) (uthread.Request, bool) {
		if len(reqs) == 0 {
			return uthread.Request{}, false
		}
		r := reqs[0]
		reqs = reqs[1:]
		return r, true
	}
}

// TestStuckCoreIsNamed forces a lost wakeup: the device drops every
// response while the host arms no recovery, so core 1 parks on its
// line's gate for good while core 0 finishes. The run must fail naming
// core 1 alone, and leave no goroutine behind.
func TestStuckCoreIsNamed(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := platform.Default()
	cfg.Cores = 2
	w := lostWakeupWorkload{ubench(testIters)}
	e := NewEnv(cfg, w.Backing())
	e.dev.SetFaultInjector(fault.NewInjector(fault.Plan{Seed: 1, DropCompletionProb: 1}))
	err := launch(e, w, 1, runPrefetchCore)
	if err == nil {
		t.Fatal("launch returned nil with core 1 parked on a gate that never fires")
	}
	if want := "core: quiescent with 1 core(s) still blocked: core1"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Fatalf("%d goroutines after the stuck run, %d before", n, before)
	}
}
