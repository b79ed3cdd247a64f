package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// This file pins the engine's dispatch order to the pre-refactor
// specification: one global priority queue ordered by (at, seq), where
// seq is the global scheduling sequence number. The production engine
// splits pending events between several structures; the property test
// below runs randomized (fixed-seed) schedules of
// At/After/Gate.Fire/Go/RunUntil interleavings through both the
// reference model and the real engine and asserts identical execution
// order and event counts.

// refEngine is the reference model: the original container/heap
// implementation, kept verbatim as the ordering spec.
type refEngine struct {
	now      Time
	seq      uint64
	events   refHeap
	executed int
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func (r *refEngine) At(t Time, fn func()) {
	if t < r.now {
		panic(fmt.Sprintf("ref: scheduling event at %v before now %v", t, r.now))
	}
	r.seq++
	heap.Push(&r.events, &refEvent{at: t, seq: r.seq, fn: fn})
}

func (r *refEngine) Run() {
	for len(r.events) > 0 {
		ev := heap.Pop(&r.events).(*refEvent)
		r.now = ev.at
		r.executed++
		ev.fn()
	}
}

// RunUntil runs the events at or before deadline, then moves the clock
// to deadline.
func (r *refEngine) RunUntil(deadline Time) {
	for len(r.events) > 0 && r.events[0].at <= deadline {
		ev := heap.Pop(&r.events).(*refEvent)
		r.now = ev.at
		r.executed++
		ev.fn()
	}
	if r.now < deadline {
		r.now = deadline
	}
}

// refGate mirrors Gate's semantics on the reference engine: Fire
// schedules all waiters at the current time in registration order;
// OnFire after the fire schedules immediately-as-an-event.
type refGate struct {
	r       *refEngine
	fired   bool
	waiters []func()
}

func (g *refGate) Fired() bool { return g.fired }
func (g *refGate) Fire() {
	if g.fired {
		panic("ref: gate fired twice")
	}
	g.fired = true
	for _, fn := range g.waiters {
		g.r.At(g.r.now, fn)
	}
	g.waiters = nil
}
func (g *refGate) OnFire(fn func()) {
	if g.fired {
		g.r.At(g.r.now, fn)
		return
	}
	g.waiters = append(g.waiters, fn)
}

// gateIface lets the script drive real and reference gates alike.
type gateIface interface {
	Fire()
	OnFire(fn func())
	Fired() bool
}

// driver abstracts the engine under test so one script interpreter
// drives both implementations.
type driver struct {
	at       func(t Time, fn func())
	now      func() Time
	newGate  func() gateIface
	goProc   func(sleeps []Time, woke func(i int))
	run      func()
	runUntil func(deadline Time)
	executed func() int
}

func engineDriver(e *Engine) driver {
	return driver{
		at:      e.At,
		now:     e.Now,
		newGate: func() gateIface { return e.NewGate() },
		goProc: func(sleeps []Time, woke func(i int)) {
			e.Go("prop", func(p *Proc) {
				for i, d := range sleeps {
					p.Sleep(d)
					woke(i)
				}
			})
		},
		run:      func() { e.Run() },
		runUntil: func(deadline Time) { e.RunUntil(deadline) },
		executed: func() int { return int(e.Executed()) },
	}
}

func refDriver(r *refEngine) driver {
	return driver{
		at:      r.At,
		now:     func() Time { return r.now },
		newGate: func() gateIface { return &refGate{r: r} },
		goProc: func(sleeps []Time, woke func(i int)) {
			// Engine.Go schedules a start event at the current time; the
			// body then turns each Sleep(d) into a resume event d later.
			// The reference models that as a chain of events.
			var chain func(i int) func()
			chain = func(i int) func() {
				return func() {
					if i >= 0 {
						woke(i)
					}
					if i+1 < len(sleeps) {
						r.At(r.now+sleeps[i+1], chain(i+1))
					}
				}
			}
			r.At(r.now, func() {
				if len(sleeps) > 0 {
					r.At(r.now+sleeps[0], chain(0))
				}
			})
		},
		run:      r.Run,
		runUntil: r.RunUntil,
		executed: func() int { return r.executed },
	}
}

// runScript interprets a seeded random schedule against d and returns
// the execution log. All randomness is consumed either up front or
// inside event callbacks; since callbacks run in (asserted-identical)
// dispatch order, both drivers see the same random stream.
//
// Beyond short delays, the script schedules far events (5–20 µs, so a
// run wraps the engine's 4.19 µs timing wheel many times and uses its
// overflow heap), delays straddling wheelSpan, picosecond delays that
// share a 1024 ps bucket out of order, and events at exactly the time
// of an earlier pending event, which puts a same-time tie on both sides
// of the window when that event was scheduled far ahead. The run itself
// advances in RunUntil hops, some ending inside a 1024 ps bucket and
// some past the window, with a new event scheduled from outside the
// engine after each hop.
func runScript(seed int64, d driver) []int {
	rng := rand.New(rand.NewSource(seed))
	var log []int
	nextID := 0
	budget := 3000
	var gates []gateIface
	var targets []Time // times of scheduled timed events, for ties

	var spawn func()
	// timed schedules one logged event that spawns another, at t.
	timed := func(id int, t Time) {
		targets = append(targets, t)
		d.at(t, func() { log = append(log, id); spawn() })
	}
	spawn = func() {
		if budget <= 0 {
			return
		}
		budget--
		id := nextID
		nextID++
		switch rng.Intn(10) {
		case 0, 1: // future event (After)
			timed(id, d.now()+Time(1+rng.Intn(40))*Nanosecond)
		case 2: // same-timestamp event (the now-queue path)
			d.at(d.now(), func() { log = append(log, id); spawn() })
		case 3: // gate: waiters registered now, fire scheduled
			g := d.newGate()
			gates = append(gates, g)
			n := 1 + rng.Intn(3)
			for i := 0; i < n; i++ {
				wid := nextID
				nextID++
				g.OnFire(func() { log = append(log, wid); spawn() })
			}
			delta := Time(rng.Intn(25)) * Nanosecond
			d.at(d.now()+delta, func() {
				log = append(log, id)
				if !g.Fired() {
					g.Fire()
				}
			})
		case 4: // late waiter on an existing gate (may already have fired)
			if len(gates) == 0 {
				d.at(d.now()+Nanosecond, func() { log = append(log, id); spawn() })
				break
			}
			g := gates[rng.Intn(len(gates))]
			g.OnFire(func() { log = append(log, id); spawn() })
		case 5: // process: a chain of sleeps (Engine.Go + Proc.Sleep)
			k := 1 + rng.Intn(4)
			sleeps := make([]Time, k)
			ids := make([]int, k)
			for i := range sleeps {
				sleeps[i] = Time(1+rng.Intn(20)) * Nanosecond
				if rng.Intn(8) == 0 {
					sleeps[i] = 5*Microsecond + Time(rng.Int63n(int64(15*Microsecond)))
				}
				ids[i] = nextID
				nextID++
			}
			d.goProc(sleeps, func(i int) { log = append(log, ids[i]) })
		case 6: // far event, at any picosecond offset
			timed(id, d.now()+5*Microsecond+Time(rng.Int63n(int64(15*Microsecond))))
		case 7: // delay within two buckets of the window's span
			timed(id, d.now()+wheelSpan-2048+Time(rng.Intn(4096)))
		case 8: // tie: the time of an earlier event, if still pending
			t := targets[rng.Intn(len(targets))]
			if t <= d.now() {
				t = d.now() + wheelSpan + Time(rng.Intn(4096))
			}
			timed(id, t)
		case 9: // sub-2 ns delay at any picosecond: shared buckets
			timed(id, d.now()+Time(1+rng.Intn(2047)))
		}
	}

	timed(nextID, wheelSpan) // seeds case 8's list
	nextID++
	for i := 0; i < 40; i++ {
		spawn()
	}
	hop := rand.New(rand.NewSource(^seed))
	for i := 0; i < 24; i++ {
		var dt Time
		switch hop.Intn(3) {
		case 0: // inside a bucket
			dt = Time(hop.Intn(1024))
		case 1:
			dt = Time(hop.Int63n(int64(2 * Microsecond)))
		case 2: // past the window
			dt = wheelSpan + Time(hop.Int63n(int64(16*Microsecond)))
		}
		d.runUntil(d.now() + dt)
		spawn()
	}
	d.run()
	return log
}

// checkDispatchOrder runs seed's script on e and on the reference
// model and fails unless both log the same dispatch order and execute
// the same number of events, and e is left with no live procs.
func checkDispatchOrder(t testing.TB, seed int64, e *Engine) {
	t.Helper()
	ed := engineDriver(e)
	gotLog := runScript(seed, ed)
	gotExec := ed.executed()

	r := &refEngine{}
	rd := refDriver(r)
	wantLog := runScript(seed, rd)
	wantExec := rd.executed()

	if len(gotLog) != len(wantLog) {
		t.Fatalf("seed %d: engine logged %d events, reference %d", seed, len(gotLog), len(wantLog))
	}
	for i := range wantLog {
		if gotLog[i] != wantLog[i] {
			t.Fatalf("seed %d: dispatch order diverges at %d: engine %v..., reference %v...",
				seed, i, gotLog[i:min(i+8, len(gotLog))], wantLog[i:min(i+8, len(wantLog))])
		}
	}
	if gotExec != wantExec {
		t.Fatalf("seed %d: engine executed %d events, reference %d", seed, gotExec, wantExec)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("seed %d: leaked %d procs", seed, e.LiveProcs())
	}
}

// TestDispatchOrderMatchesReferenceModel is the determinism property
// test: for many fixed seeds, the heap+now-queue engine must execute a
// randomized At/After/Gate.Fire/Go schedule in exactly the order of the
// single-global-heap reference spec, with the same event count. Each
// engine is recycled before the next seed's is built, so it also
// checks that reusing recycled backing arrays changes nothing.
func TestDispatchOrderMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		e := NewEngine()
		checkDispatchOrder(t, seed, e)
		e.Recycle() // cross-seed reuse must not change anything either
	}
}

// FuzzDispatchOrder is the same property over fuzzed seeds, each run
// twice: on a fresh engine, then, once that one is recycled, on an
// engine built from its scratch. The corpus holds seeds 1–40, so plain
// `go test` keeps the fixed-seed coverage; run it as a fuzzer with
//
//	go test -run '^$' -fuzz '^FuzzDispatchOrder$' -fuzztime 20s ./internal/sim
func FuzzDispatchOrder(f *testing.F) {
	for seed := int64(1); seed <= 40; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		e := NewEngine()
		checkDispatchOrder(t, seed, e)
		e.Recycle()
		checkDispatchOrder(t, seed, NewEngine())
	})
}
