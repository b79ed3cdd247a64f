package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// settleGoroutines waits up to five seconds for the goroutine count to
// fall back to before and returns the last count seen. An exiting
// coroutine's goroutine is reaped a moment after it hands control back,
// so an immediate count can read one high.
func settleGoroutines(before int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestWatchdogFailureLeavesNoGoroutines: when RunChecked finds
// processes stuck — on a gate, in a WaitTimeout whose timer already
// fired, and queued on a token pool — it aborts them. Each parked body
// unwinds through its deferred functions, its coroutine exits, and the
// stuck processes are still named for the post-mortem.
func TestWatchdogFailureLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	never := e.NewGate()
	pool := e.NewTokenPool("lfb", 1)
	unwound := 0
	e.Go("gate", func(p *Proc) {
		defer func() { unwound++ }()
		p.Wait(never)
		t.Error("gate waiter resumed past a gate that never fired")
	})
	e.Go("timeout", func(p *Proc) {
		defer func() { unwound++ }()
		if p.WaitTimeout(never, Nanosecond) {
			t.Error("WaitTimeout reported an unfired gate as fired")
		}
		p.Wait(never)
	})
	e.Go("holder", func(p *Proc) {
		p.AcquireToken(pool) // held for good
	})
	e.Go("queued", func(p *Proc) {
		defer func() { unwound++ }()
		p.AcquireToken(pool)
	})
	e.Go("clean", func(p *Proc) { p.Sleep(Nanosecond) })

	_, err := e.RunChecked()
	if err == nil {
		t.Fatal("RunChecked returned nil with three processes stuck")
	}
	if unwound != 3 {
		t.Errorf("%d stuck bodies ran their deferred functions, want 3", unwound)
	}
	if got := strings.Join(e.LiveProcNames(), ","); got != "gate,timeout,queued" {
		t.Errorf("LiveProcNames after abort = %q, want gate,timeout,queued", got)
	}
	e.Abort() // a second abort finds nothing parked
	if n := settleGoroutines(before); n > before {
		t.Fatalf("%d goroutines after the watchdog failure, %d before", n, before)
	}
}

// TestProcPanicReachesRunCaller: a panic in a process body unwinds to
// the goroutine that called Run, where it can be recovered; Abort then
// unwinds the processes still parked.
func TestProcPanicReachesRunCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	e.Go("bystander", func(p *Proc) { p.Wait(e.NewGate()) })
	e.Go("faulty", func(p *Proc) {
		p.Sleep(Nanosecond)
		panic("model bug")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if got != "model bug" {
		t.Fatalf("recovered %v from Run, want the body's panic value", got)
	}
	e.Abort()
	if n := settleGoroutines(before); n > before {
		t.Fatalf("%d goroutines after the recovered panic and Abort, %d before", n, before)
	}
}
