package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/uthread"
)

// panickyWorkload is the microbenchmark with one thread whose body
// panics after a few accesses, while its siblings and the other cores
// are parked mid-run.
type panickyWorkload struct{ Workload }

func (w panickyWorkload) Body(coreID, threadID, threadsPerCore int) func(*uthread.API) {
	body := w.Workload.Body(coreID, threadID, threadsPerCore)
	if coreID != 1 || threadID != 2 {
		return body
	}
	return func(a *uthread.API) {
		for i := 0; i < 3; i++ {
			a.Access(uint64(i) * 64)
		}
		panic("workload body bug")
	}
}

// TestPanickingRunLeavesNoGoroutines: a workload body that panics
// reaches the caller of the run, and launch leaves no executor process,
// device fetcher or user-level thread parked behind it.
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
			t.Fatalf("%s: recovered %v, want the body's panic", name, got)
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
