package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestStartedCompactionKeepsNamesStable is the regression test for the
// unbounded-growth fix: a long-lived engine that starts many processes
// must compact the finished ones out of its process table while
// LiveProcNames keeps reporting survivors in start order.
func TestStartedCompactionKeepsNamesStable(t *testing.T) {
	e := NewEngine()
	g := e.NewGate() // never fired: pins the stuck procs
	const total = 120
	var stuck []string
	for i := 0; i < total; i++ {
		name := fmt.Sprintf("p%03d", i)
		if i == 7 || i == 60 || i == 113 {
			stuck = append(stuck, name)
			e.Go(name, func(p *Proc) { p.Wait(g) })
		} else {
			d := Time(1+i%17) * Nanosecond
			e.Go(name, func(p *Proc) { p.Sleep(d) })
		}
	}
	e.Run()
	if e.LiveProcs() != len(stuck) {
		t.Fatalf("LiveProcs = %d, want %d", e.LiveProcs(), len(stuck))
	}
	// Compaction must have shed most of the 117 finished procs...
	if len(e.started) >= total/2 {
		t.Errorf("started table holds %d entries after %d exits; compaction did not run", len(e.started), total-len(stuck))
	}
	// ...without disturbing the stuck procs' names or start order.
	names := e.LiveProcNames()
	if strings.Join(names, ",") != strings.Join(stuck, ",") {
		t.Errorf("LiveProcNames = %v, want %v", names, stuck)
	}
	// Later Gos still run correctly and keep the survivors' order.
	var woke []string
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("r%d", i)
		e.Go(name, func(p *Proc) {
			p.Sleep(Nanosecond)
			woke = append(woke, p.Name())
		})
	}
	e.Run()
	if strings.Join(woke, ",") != "r0,r1,r2,r3,r4" {
		t.Errorf("reused procs woke as %v", woke)
	}
	if got := e.LiveProcNames(); strings.Join(got, ",") != strings.Join(stuck, ",") {
		t.Errorf("LiveProcNames after reuse = %v, want %v", got, stuck)
	}
}

// TestWaitTimeoutArmDropsReferences pins the leak fix: whichever arm of
// a WaitTimeout loses the race, the winning arm clears the shared
// resume reference — so a stale timer event sitting in the heap (or a
// stale waiter on an unfired gate) retains a two-word struct, not the
// waiter and the workload reachable from it — and the loser never
// resumes the waiter a second time.
func TestWaitTimeoutArmDropsReferences(t *testing.T) {
	resumed := 0
	resume := func() { resumed++ }

	// Gate wins; the stale timer fires later.
	a := &Timeout{fn: resume}
	a.gateWin()
	if a.fn != nil {
		t.Error("gate win kept the resume reference alive")
	}
	if !a.GateFired() {
		t.Error("gate win did not record the gate as fired")
	}
	a.timerWin() // stale
	if resumed != 1 {
		t.Fatalf("waiter resumed %d times, want exactly once", resumed)
	}

	// Timer wins; the gate fires later.
	resumed = 0
	a = &Timeout{fn: resume}
	a.timerWin()
	if a.fn != nil {
		t.Error("timer win kept the resume reference alive")
	}
	if a.GateFired() {
		t.Error("timer win claimed the gate fired")
	}
	a.gateWin() // stale
	if resumed != 1 {
		t.Fatalf("waiter resumed %d times, want exactly once", resumed)
	}
}

// TestWaitTimeoutNoDoubleResumeEndToEnd drives both stale-arm orders
// through real runs: the process must observe exactly one wakeup per
// wait even though the losing event still fires inside the engine.
func TestWaitTimeoutNoDoubleResumeEndToEnd(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Go("waiter", func(p *Proc) {
		// Gate wins at 30ns; stale timer pending until 100ns.
		g := e.NewGate()
		e.At(30*Nanosecond, g.Fire)
		fired := p.WaitTimeout(g, 100*Nanosecond)
		trace = append(trace, fmt.Sprintf("gate-win fired=%v at=%v", fired, p.Now()))
		// Stay alive across the stale timer so a double resume would
		// corrupt this sleep instead of deadlocking silently.
		p.Sleep(200 * Nanosecond)
		trace = append(trace, fmt.Sprintf("slept at=%v", p.Now()))

		// Timer wins at +25ns; the gate fires afterwards while the
		// stale waiter is still registered.
		g2 := e.NewGate()
		e.At(p.Now()+60*Nanosecond, g2.Fire)
		fired = p.WaitTimeout(g2, 25*Nanosecond)
		trace = append(trace, fmt.Sprintf("timer-win fired=%v at=%v", fired, p.Now()))
		p.Sleep(100 * Nanosecond)
		trace = append(trace, fmt.Sprintf("done at=%v", p.Now()))
	})
	if _, err := e.RunChecked(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"gate-win fired=true at=30.000ns",
		"slept at=230.000ns",
		"timer-win fired=false at=255.000ns",
		"done at=355.000ns",
	}
	if strings.Join(trace, "; ") != strings.Join(want, "; ") {
		t.Errorf("trace:\n  got  %v\n  want %v", trace, want)
	}
}

// TestRecycledEngineIsDeterministic runs the same schedule on a fresh
// engine and on engines built from recycled scratch, asserting
// identical behavior — array reuse must be invisible to results.
func TestRecycledEngineIsDeterministic(t *testing.T) {
	run := func() (string, uint64) {
		e := NewEngine()
		var log []string
		g := e.NewGate()
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("w%d", i)
			e.Go(name, func(p *Proc) {
				p.Sleep(Time(1+i%5) * Nanosecond)
				p.Wait(g)
				log = append(log, p.Name())
			})
		}
		e.At(50*Nanosecond, g.Fire)
		if _, err := e.RunChecked(); err != nil {
			t.Fatal(err)
		}
		exec := e.Executed()
		e.Recycle()
		return strings.Join(log, ","), exec
	}
	wantLog, wantExec := run()
	for i := 0; i < 5; i++ {
		gotLog, gotExec := run()
		if gotLog != wantLog || gotExec != wantExec {
			t.Fatalf("recycled run %d diverged: %q (%d events) vs %q (%d events)",
				i, gotLog, gotExec, wantLog, wantExec)
		}
	}
}

// TestRecycleRefusesDirtyEngine: an engine with pending events or live
// procs must keep its state (for stuck-process reports) instead of
// handing reachable arrays to the pool.
func TestRecycleRefusesDirtyEngine(t *testing.T) {
	e := NewEngine()
	g := e.NewGate()
	e.Go("stuck", func(p *Proc) { p.Wait(g) })
	e.Run()
	e.Recycle() // must be a no-op: one proc is still blocked
	if got := e.LiveProcNames(); len(got) != 1 || got[0] != "stuck" {
		t.Fatalf("LiveProcNames after refused recycle = %v, want [stuck]", got)
	}

	e2 := NewEngine()
	e2.At(5*Nanosecond, func() {})
	e2.Recycle() // must be a no-op: one event pending
	if e2.Pending() != 1 {
		t.Fatalf("Pending after refused recycle = %d, want 1", e2.Pending())
	}
}

// TestNowQueueCompaction exercises the head-compaction path of the
// now-queue: long same-timestamp chains must not grow the backing
// array proportionally to chain length.
func TestNowQueueCompaction(t *testing.T) {
	e := NewEngine()
	n := 0
	const chain = 100000
	var next func()
	next = func() {
		if n < chain {
			n++
			e.At(e.Now(), next)
		}
	}
	e.At(Nanosecond, next)
	e.Run()
	if n != chain {
		t.Fatalf("chain executed %d links, want %d", n, chain)
	}
	if c := cap(e.nowq); c > 64 {
		t.Errorf("now-queue backing array grew to %d for a depth-1 chain", c)
	}
}
