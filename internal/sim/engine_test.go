package sim

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTimeConversions(t *testing.T) {
	if got := (2 * Microsecond).Nanoseconds(); got != 2000 {
		t.Errorf("2us = %v ns, want 2000", got)
	}
	if got := FromNanoseconds(1.5); got != 1500*Picosecond {
		t.Errorf("FromNanoseconds(1.5) = %v, want 1500ps", got)
	}
	if got := FromNanoseconds(-2); got != -2*Nanosecond {
		t.Errorf("FromNanoseconds(-2) = %v, want -2ns", got)
	}
	if got := FromSeconds(1e-6); got != Microsecond {
		t.Errorf("FromSeconds(1e-6) = %v, want 1us", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0s"},
		{500 * Picosecond, "500ps"},
		{1500 * Picosecond, "1.500ns"},
		{Microsecond, "1.000us"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestFromNanosecondsRoundTrip(t *testing.T) {
	f := func(ns uint32) bool {
		v := FromNanoseconds(float64(ns))
		return v == Time(ns)*Nanosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(10*Nanosecond, func() { order = append(order, 2) })
	e.At(5*Nanosecond, func() { order = append(order, 1) })
	e.At(10*Nanosecond, func() { order = append(order, 3) }) // same time: FIFO by seq
	e.At(20*Nanosecond, func() { order = append(order, 4) })
	end := e.Run()
	if end != 20*Nanosecond {
		t.Errorf("final time %v, want 20ns", end)
	}
	want := []int{1, 2, 3, 4}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Executed() != 4 {
		t.Errorf("executed %d events, want 4", e.Executed())
	}
}

func TestEngineAfterAndNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.After(3*Nanosecond, func() {
		times = append(times, e.Now())
		e.After(4*Nanosecond, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 3*Nanosecond || times[1] != 7*Nanosecond {
		t.Errorf("times = %v, want [3ns 7ns]", times)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5*Nanosecond, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := 1; i <= 5; i++ {
		e.At(Time(i)*Nanosecond, func() { fired++ })
	}
	n := e.RunUntil(3 * Nanosecond)
	if n != 3 || fired != 3 {
		t.Errorf("RunUntil(3ns) executed %d (fired %d), want 3", n, fired)
	}
	if e.Now() != 3*Nanosecond {
		t.Errorf("now = %v, want 3ns", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d, want 2", e.Pending())
	}
	// RunUntil past all events advances the clock to the deadline.
	e.RunUntil(100 * Nanosecond)
	if e.Now() != 100*Nanosecond || fired != 5 {
		t.Errorf("now = %v fired = %d, want 100ns and 5", e.Now(), fired)
	}
}

// TestRunYieldsToOtherGoroutines: on one processor, a goroutine started
// before a long run gets to run within two yield intervals of events,
// through Run and through RunUntil, so a GC mark worker waiting for the
// processor does not wait for asynchronous preemption. The yield moves
// neither the clock nor the event count.
func TestRunYieldsToOtherGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const events = 20000
	for _, c := range []struct {
		name string
		run  func(e *Engine)
	}{
		{"Run", func(e *Engine) { e.Run() }},
		{"RunUntil", func(e *Engine) { e.RunUntil(events * Nanosecond) }},
	} {
		e := NewEngine()
		var flag atomic.Bool
		seenAt := uint64(0)
		var tick func()
		tick = func() {
			if seenAt == 0 && flag.Load() {
				seenAt = e.Executed()
			}
			if e.Now() < events*Nanosecond {
				e.After(Nanosecond, tick)
			}
		}
		e.After(Nanosecond, tick)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			flag.Store(true)
		}()
		c.run(e)
		wg.Wait()
		if seenAt == 0 || seenAt > 2*yieldEvery {
			t.Errorf("%s: the other goroutine's store was seen at event %d of %d, want by event %d",
				c.name, seenAt, e.Executed(), 2*yieldEvery)
		}
		if e.Executed() != events || e.Now() != events*Nanosecond {
			t.Errorf("%s: executed %d events to %v, want %d to %v", c.name, e.Executed(), e.Now(), events, events*Nanosecond)
		}
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wakes []Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Nanosecond)
		wakes = append(wakes, p.Now())
		p.Sleep(10 * Nanosecond)
		wakes = append(wakes, p.Now())
		p.Sleep(0) // zero sleep is a no-op
		wakes = append(wakes, p.Now())
	})
	e.Run()
	if len(wakes) != 3 || wakes[0] != 5*Nanosecond || wakes[1] != 15*Nanosecond || wakes[2] != 15*Nanosecond {
		t.Errorf("wakes = %v", wakes)
	}
	if e.LiveProcs() != 0 {
		t.Errorf("leaked %d procs", e.LiveProcs())
	}
}

func TestProcDeterministicInterleaving(t *testing.T) {
	// Two identical runs must produce identical traces.
	run := func() []string {
		e := NewEngine()
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(2 * Nanosecond)
					trace = append(trace, name)
				}
			})
		}
		e.Run()
		return trace
	}
	t1, t2 := run(), run()
	if len(t1) != 9 {
		t.Fatalf("trace length %d, want 9", len(t1))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("nondeterministic traces:\n%v\n%v", t1, t2)
		}
	}
	// Same-time wakeups fire in process start order.
	if t1[0] != "a" || t1[1] != "b" || t1[2] != "c" {
		t.Errorf("first round = %v, want a,b,c prefix", t1[:3])
	}
}

func TestGate(t *testing.T) {
	e := NewEngine()
	g := e.NewGate()
	var woke []Time
	e.Go("waiter1", func(p *Proc) {
		p.Wait(g)
		woke = append(woke, p.Now())
	})
	e.Go("late-waiter", func(p *Proc) {
		p.Sleep(20 * Nanosecond) // waits after the gate fired
		p.Wait(g)
		woke = append(woke, p.Now())
	})
	e.At(8*Nanosecond, func() { g.Fire() })
	e.Run()
	if !g.Fired() || g.FiredAt() != 8*Nanosecond {
		t.Errorf("gate fired=%v at %v, want fired at 8ns", g.Fired(), g.FiredAt())
	}
	if len(woke) != 2 || woke[0] != 8*Nanosecond || woke[1] != 20*Nanosecond {
		t.Errorf("woke = %v, want [8ns 20ns]", woke)
	}
}

func TestGateOnFireCallback(t *testing.T) {
	e := NewEngine()
	g := e.NewGate()
	var calls []Time
	g.OnFire(func() { calls = append(calls, e.Now()) })
	e.At(5*Nanosecond, func() { g.Fire() })
	e.Run()
	g.OnFire(func() { calls = append(calls, e.Now()) }) // after fire: scheduled immediately
	e.Run()
	if len(calls) != 2 || calls[0] != 5*Nanosecond || calls[1] != 5*Nanosecond {
		t.Errorf("calls = %v, want [5ns 5ns]", calls)
	}
}

func TestGateDoubleFirePanics(t *testing.T) {
	e := NewEngine()
	g := e.NewGate()
	g.Fire()
	defer func() {
		if recover() == nil {
			t.Error("double fire did not panic")
		}
	}()
	g.Fire()
}

func TestTokenPoolFIFOAndStats(t *testing.T) {
	e := NewEngine()
	tp := e.NewTokenPool("lfb", 2)
	var grants []int
	for i := 0; i < 4; i++ {
		i := i
		tp.OnAcquire(func() { grants = append(grants, i) })
	}
	// Two granted immediately, two queued.
	e.Run()
	if len(grants) != 2 || tp.InUse() != 2 {
		t.Fatalf("grants = %v inUse = %d, want 2 grants", grants, tp.InUse())
	}
	e.At(e.Now()+Nanosecond, func() { tp.Release() })
	e.At(e.Now()+2*Nanosecond, func() { tp.Release() })
	e.Run()
	want := []int{0, 1, 2, 3}
	for i := range want {
		if grants[i] != want[i] {
			t.Fatalf("grant order %v, want %v", grants, want)
		}
	}
	if tp.Stalls() != 2 || tp.Acquires() != 4 || tp.MaxInUse() != 2 {
		t.Errorf("stalls=%d acquires=%d max=%d, want 2,4,2", tp.Stalls(), tp.Acquires(), tp.MaxInUse())
	}
}

func TestTokenPoolTryAcquire(t *testing.T) {
	e := NewEngine()
	tp := e.NewTokenPool("q", 1)
	if !tp.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if tp.TryAcquire() {
		t.Fatal("TryAcquire succeeded on full pool")
	}
	tp.Release()
	if !tp.TryAcquire() {
		t.Fatal("TryAcquire failed after release")
	}
}

func TestTokenPoolProcBlocking(t *testing.T) {
	e := NewEngine()
	tp := e.NewTokenPool("q", 1)
	var acquired []Time
	for i := 0; i < 3; i++ {
		e.Go("p", func(p *Proc) {
			p.AcquireToken(tp)
			acquired = append(acquired, p.Now())
			p.Sleep(10 * Nanosecond)
			tp.Release()
		})
	}
	e.Run()
	if len(acquired) != 3 || acquired[0] != 0 || acquired[1] != 10*Nanosecond || acquired[2] != 20*Nanosecond {
		t.Errorf("acquired = %v, want [0 10ns 20ns]", acquired)
	}
	if tp.MaxInUse() != 1 {
		t.Errorf("max occupancy %d, want 1", tp.MaxInUse())
	}
}

func TestTokenPoolReleaseEmptyPanics(t *testing.T) {
	e := NewEngine()
	tp := e.NewTokenPool("q", 1)
	defer func() {
		if recover() == nil {
			t.Error("release on empty pool did not panic")
		}
	}()
	tp.Release()
}

func TestTokenPoolMeanOccupancy(t *testing.T) {
	e := NewEngine()
	tp := e.NewTokenPool("q", 4)
	// Hold one token for the entire [0, 100ns] window.
	tp.TryAcquire()
	e.At(100*Nanosecond, func() { tp.Release() })
	e.Run()
	if got := tp.MeanOccupancy(); got < 0.99 || got > 1.01 {
		t.Errorf("mean occupancy %.3f, want ~1.0", got)
	}
}

func TestServerFIFO(t *testing.T) {
	e := NewEngine()
	s := e.NewServer("link")
	s1, e1 := s.Submit(10 * Nanosecond)
	s2, e2 := s.Submit(5 * Nanosecond)
	if s1 != 0 || e1 != 10*Nanosecond {
		t.Errorf("job1 [%v,%v], want [0,10ns]", s1, e1)
	}
	if s2 != 10*Nanosecond || e2 != 15*Nanosecond {
		t.Errorf("job2 [%v,%v], want [10ns,15ns]", s2, e2)
	}
	if s.Jobs() != 2 || s.BusyTime() != 15*Nanosecond {
		t.Errorf("jobs=%d busy=%v", s.Jobs(), s.BusyTime())
	}
}

func TestServerUtilization(t *testing.T) {
	e := NewEngine()
	s := e.NewServer("link")
	s.Submit(30 * Nanosecond)
	done := e.NewGate()
	e.At(60*Nanosecond, func() { done.Fire() })
	e.Run()
	if got := s.Utilization(); got < 0.49 || got > 0.51 {
		t.Errorf("utilization %.3f, want 0.5", got)
	}
}

func TestServerNegativeServicePanics(t *testing.T) {
	e := NewEngine()
	s := e.NewServer("link")
	defer func() {
		if recover() == nil {
			t.Error("negative service time did not panic")
		}
	}()
	s.Submit(-Nanosecond)
}

// TestProcTokenHandoffUnderContention checks that many processes
// contending on a small pool neither deadlock nor violate capacity.
func TestProcTokenHandoffUnderContention(t *testing.T) {
	e := NewEngine()
	tp := e.NewTokenPool("q", 3)
	completed := 0
	for i := 0; i < 50; i++ {
		e.Go("worker", func(p *Proc) {
			p.AcquireToken(tp)
			if tp.InUse() > tp.Capacity() {
				t.Errorf("capacity violated: %d > %d", tp.InUse(), tp.Capacity())
			}
			p.Sleep(Nanosecond)
			tp.Release()
			completed++
		})
	}
	e.Run()
	if completed != 50 {
		t.Errorf("completed %d, want 50", completed)
	}
	if e.LiveProcs() != 0 {
		t.Errorf("leaked %d procs", e.LiveProcs())
	}
	if tp.MaxInUse() != 3 {
		t.Errorf("max in use %d, want 3", tp.MaxInUse())
	}
}

// Property: for any schedule of sleeps, total simulated time equals the
// maximum cumulative sleep across processes (they run concurrently).
func TestProcParallelSleepProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 16 {
			durs = durs[:16]
		}
		e := NewEngine()
		var max Time
		for _, d := range durs {
			d := Time(d) * Nanosecond
			if d > max {
				max = d
			}
			e.Go("p", func(p *Proc) { p.Sleep(d) })
		}
		return e.Run() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRunCheckedReportsStuckProcByName is the regression test for the
// silent-hang failure mode: a process blocked on a gate nobody fires
// must be reported by name instead of being silently abandoned.
func TestRunCheckedReportsStuckProcByName(t *testing.T) {
	e := NewEngine()
	g := e.NewGate() // never fired
	e.Go("stuck-core7", func(p *Proc) {
		p.Wait(g)
	})
	e.Go("healthy", func(p *Proc) {
		p.Sleep(5 * Nanosecond)
	})
	_, err := e.RunChecked()
	if err == nil {
		t.Fatal("RunChecked returned nil for a deadlocked process")
	}
	if !strings.Contains(err.Error(), "stuck-core7") {
		t.Errorf("error %q does not name the stuck process", err)
	}
	if strings.Contains(err.Error(), "healthy") {
		t.Errorf("error %q names a process that exited cleanly", err)
	}
	if e.LiveProcs() != 1 {
		t.Errorf("LiveProcs = %d, want 1", e.LiveProcs())
	}
	if names := e.LiveProcNames(); len(names) != 1 || names[0] != "stuck-core7" {
		t.Errorf("LiveProcNames = %v, want [stuck-core7]", names)
	}
}

func TestRunCheckedCleanRun(t *testing.T) {
	e := NewEngine()
	e.Go("worker", func(p *Proc) { p.Sleep(3 * Nanosecond) })
	end, err := e.RunChecked()
	if err != nil {
		t.Fatalf("RunChecked on a clean run: %v", err)
	}
	if end != 3*Nanosecond {
		t.Errorf("final time %v, want 3ns", end)
	}
}

func TestWaitTimeoutGateFiresFirst(t *testing.T) {
	e := NewEngine()
	g := e.NewGate()
	var fired bool
	var at Time
	e.Go("p", func(p *Proc) {
		fired = p.WaitTimeout(g, 100*Nanosecond)
		at = p.Now()
	})
	e.At(30*Nanosecond, func() { g.Fire() })
	if _, err := e.RunChecked(); err != nil {
		t.Fatal(err)
	}
	if !fired || at != 30*Nanosecond {
		t.Errorf("fired=%v at %v, want gate win at 30ns", fired, at)
	}
}

func TestWaitTimeoutTimerFiresFirst(t *testing.T) {
	e := NewEngine()
	g := e.NewGate()
	var fired bool
	var at Time
	e.Go("p", func(p *Proc) {
		fired = p.WaitTimeout(g, 25*Nanosecond)
		at = p.Now()
		// The gate firing later must not resume the process a second
		// time (the proc continues and exits normally).
		p.Sleep(100 * Nanosecond)
	})
	e.At(60*Nanosecond, func() { g.Fire() })
	if _, err := e.RunChecked(); err != nil {
		t.Fatal(err)
	}
	if fired || at != 25*Nanosecond {
		t.Errorf("fired=%v at %v, want timeout at 25ns", fired, at)
	}
}

func TestWaitTimeoutAlreadyFiredAndNonPositive(t *testing.T) {
	e := NewEngine()
	g := e.NewGate()
	g2 := e.NewGate()
	var results []bool
	var at Time
	e.Go("p", func(p *Proc) {
		g.Fire()
		results = append(results, p.WaitTimeout(g, 50*Nanosecond)) // already fired
		results = append(results, p.WaitTimeout(g2, 0))            // non-blocking check
		results = append(results, p.WaitTimeout(g2, -Nanosecond))
		at = p.Now()
	})
	if _, err := e.RunChecked(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || !results[0] || results[1] || results[2] {
		t.Errorf("results = %v, want [true false false]", results)
	}
	if at != 0 {
		t.Errorf("non-blocking calls advanced time to %v", at)
	}
}

// TestHotResourcesFillCacheLines pins the padding of the resources a
// fleet's shards write concurrently: each occupies whole cache lines,
// so neighbouring instances never share one.
func TestHotResourcesFillCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(TokenPool{}); n%cacheLine != 0 {
		t.Errorf("TokenPool is %d bytes, not a multiple of %d", n, cacheLine)
	}
	if n := unsafe.Sizeof(Server{}); n%cacheLine != 0 {
		t.Errorf("Server is %d bytes, not a multiple of %d", n, cacheLine)
	}
}
