package sim

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
)

// event is a single scheduled callback. Events are stored by value in
// the engine's wheel and heap: no interface boxing and no per-event
// pointer allocation, which matters because every figure cell of the
// reproduction is millions of events.
type event struct {
	at  Time
	seq uint64 // tie-breaker: events at the same time fire in scheduling order
	fn  func()
}

// before reports, as 1 or 0, whether a orders before b by (at, seq) —
// the same total order the original container/heap implementation
// used. It is the borrow out of the 128-bit subtraction (a.at, a.seq)
// - (b.at, b.seq), so the heap's sift compares without a branch to
// mispredict. Event times are never negative (the clock starts at zero
// and never moves into the past), so at compares as unsigned.
func before(a, b *event) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return int(borrow)
}

// heapPad sentinel events follow the heap's last event, so every node
// of the 4-ary heap has four readable children. A sentinel orders
// after every scheduled event and holds no callback.
const heapPad = 3

var heapSentinel = event{at: math.MaxInt64, seq: math.MaxUint64}

// Engine is a deterministic discrete-event simulator.
//
// The zero value is not usable; create engines with NewEngine. An Engine
// must be driven by one goroutine at a time (processes started with Go
// are coroutines the engine switches to and back from, so user code
// never runs concurrently with engine code). The driving goroutine may
// change between calls when the caller provides the ordering — the
// sharded fleet driver moves engines between fan-out goroutines this
// way — but two goroutines must never drive one engine concurrently.
//
// Internally the engine keeps three pending-event structures:
//
//   - a timing wheel of 4096 buckets of 1024 ps for events due within
//     about 4.19 µs of the current bucket, nearly all of them;
//   - a 4-ary min-heap over []event, ordered by (at, seq), for the
//     events due later, the wheel's overflow tier;
//   - a FIFO now-queue for events scheduled at the current timestamp
//     (Gate.Fire waiters, Engine.Go starts, OnFire on fired gates — a
//     large fraction of all events), which bypass both.
//
// An event stays in the tier it entered, and each timed tier yields its
// earliest event by (at, seq). At equal times the heap's runs first,
// which is scheduling order: a heap event at t was pushed while t lay
// beyond the wheel's window and a wheel event at t while it lay inside,
// and the window only moves forward, so every heap event at t was
// sequence-numbered before every wheel event at t.
//
// The now-queue split preserves the documented ordering too: an event
// can only enter a timed tier at time t while now < t, and can only
// enter the now-queue at t while now == t, so every timed event at t
// was scheduled (and sequence-numbered) before every now-queue event at
// t. Draining timed events at `now` before now-queue events is
// therefore exactly global scheduling order.
type Engine struct {
	now      Time
	w        wheel   // timed events due within wheelSpan
	heap     []event // later timed events: 4-ary min-heap by (at, seq), then heapPad sentinels
	seq      uint64
	executed uint64

	// now-queue: FIFO of events scheduled at the current timestamp.
	// nowHead indexes the next event to run; popped slots are nil'd and
	// the backing array is reused once the queue drains.
	nowq    []func()
	nowHead int

	procs     int     // live processes, for leak detection
	started   []*Proc // processes not yet compacted away, for stuck-process reports and Abort
	deadProcs int     // finished processes still occupying started

	// gate-waiter slices, refilled across runs by Recycle via the
	// package scratch pool.
	waiterFree [][]func()
}

// scratch is the recyclable allocation footprint of one engine run.
// Runs hand it back through scratchPool (Engine.Recycle), and NewEngine
// adopts it, so a worker executing many simulation cells re-runs each
// one on warm backing arrays instead of regrowing them from nil —
// sync.Pool keeps free lists per-P, so each runpool worker effectively
// retains its own scratch across the cells it executes.
type scratch struct {
	wheel      wheelScratch
	heap       []event
	nowq       []func()
	started    []*Proc
	waiterFree [][]func()
}

var scratchPool sync.Pool

// NewEngine returns an empty engine with the clock at zero, reusing the
// backing arrays of a previously Recycle()d engine when available.
func NewEngine() *Engine {
	e := &Engine{}
	var ws wheelScratch
	if s, ok := scratchPool.Get().(*scratch); ok {
		ws = s.wheel
		e.heap = s.heap
		e.nowq = s.nowq
		e.started = s.started
		e.waiterFree = s.waiterFree
	}
	e.w.init(ws)
	for range heapPad {
		e.heap = append(e.heap, heapSentinel)
	}
	return e
}

// Recycle returns the engine's backing arrays (wheel, event heap,
// now-queue, process table, waiter free list) to the package pool for
// the next NewEngine call. It is a no-op unless the engine is fully
// quiescent — no pending events and no live processes — so a run that
// errored out keeps its state for post-mortem inspection. The engine
// must not be used again after Recycle.
func (e *Engine) Recycle() {
	if e.procs != 0 || e.Pending() != 0 {
		return
	}
	clear(e.started)
	s := &scratch{
		wheel:      e.w.scratch(),
		heap:       e.heap[:0],
		nowq:       e.nowq[:0],
		started:    e.started[:0],
		waiterFree: e.waiterFree,
	}
	e.w, e.heap, e.nowq, e.started, e.waiterFree = wheel{}, nil, nil, nil, nil
	e.nowHead = 0
	e.deadProcs = 0
	scratchPool.Put(s)
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far, a cheap proxy
// for simulation effort.
func (e *Engine) Executed() uint64 { return e.executed }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a modeling bug, and silently clamping
// would mask it. Scheduling at the current time enqueues on the FIFO
// now-queue; a later time goes to the wheel when it falls inside the
// wheel's window and to the heap otherwise.
func (e *Engine) At(t Time, fn func()) {
	if t <= e.now {
		if t < e.now {
			panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
		}
		e.pushNow(fn)
		return
	}
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn}
	if t < e.now&^(wheelWidth-1)+wheelSpan {
		e.w.push(ev)
		return
	}
	e.heapPush(ev)
}

// After schedules fn to run d from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Delay is the continuation form of sleeping for d. It schedules fn d
// from now and reports true: the caller must park until fn runs. A zero
// d schedules nothing and reports false, so the caller continues
// inline and a zero-length step costs no event. A negative d panics.
func (e *Engine) Delay(d Time, fn func()) bool {
	if d <= 0 {
		if d < 0 {
			panic(fmt.Sprintf("sim: delay of negative duration %v", d))
		}
		return false
	}
	e.At(e.now+d, fn)
	return true
}

// pushNow appends to the now-queue, compacting consumed head slots
// before the backing array would otherwise grow.
func (e *Engine) pushNow(fn func()) {
	if len(e.nowq) == cap(e.nowq) && e.nowHead > 0 {
		n := copy(e.nowq, e.nowq[e.nowHead:])
		for i := n; i < len(e.nowq); i++ {
			e.nowq[i] = nil
		}
		e.nowq = e.nowq[:n]
		e.nowHead = 0
	}
	e.nowq = append(e.nowq, fn)
}

// popNow removes and returns the oldest now-queue event. The caller
// must have checked it is non-empty.
func (e *Engine) popNow() func() {
	fn := e.nowq[e.nowHead]
	e.nowq[e.nowHead] = nil
	e.nowHead++
	if e.nowHead == len(e.nowq) {
		e.nowq = e.nowq[:0]
		e.nowHead = 0
	}
	return fn
}

// heapLen returns the number of events in the heap.
func (e *Engine) heapLen() int { return len(e.heap) - heapPad }

// heapPush inserts ev into the 4-ary min-heap. The first sentinel's
// slot becomes the hole ev sifts up from, and one more sentinel goes
// on the end.
func (e *Engine) heapPush(ev event) {
	h := append(e.heap, heapSentinel)
	i := len(h) - heapPad - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if before(&ev, &h[parent]) == 0 {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.heap = h
}

// heapPop removes and returns the minimum event. The caller must have
// checked the heap is non-empty.
func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - heapPad - 1 // events left after the pop
	last := h[n]
	h[n] = heapSentinel // also releases the callback reference
	h = h[:n+heapPad]
	e.heap = h
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			// The least of the four children, by index arithmetic:
			// the better of each pair, then the better of the two.
			// Slots past the last event hold sentinels, which never
			// win.
			a := c + before(&h[c+1], &h[c])
			b := c + 2 + before(&h[c+3], &h[c+2])
			m := a + (b-a)*before(&h[b], &h[a])
			if before(&h[m], &last) == 0 {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top
}

// nextAt returns the time of the earliest timed event, math.MaxInt64
// when there is none: the wheel's cached minimum and the heap's top
// (a sentinel when the heap is empty).
func (e *Engine) nextAt() Time { return min(e.w.minAt, e.heap[0].at) }

// Step executes the single earliest pending event and reports whether
// one existed. Timed events at the current time run before now-queue
// events: they were necessarily scheduled earlier (see the type
// comment), so this is global scheduling order.
func (e *Engine) Step() bool {
	if e.nowHead < len(e.nowq) && e.nextAt() > e.now {
		fn := e.popNow()
		e.executed++
		fn()
		return true
	}
	var ev event
	if e.heap[0].at <= e.w.minAt {
		if e.heapLen() == 0 {
			return false // both tiers are empty
		}
		ev = e.heapPop()
	} else {
		ev = e.w.pop()
	}
	e.now = ev.at
	e.executed++
	ev.fn()
	return true
}

// Run executes events until none remain, then returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline, advances the
// clock to deadline, and returns the number of events executed.
func (e *Engine) RunUntil(deadline Time) uint64 {
	start := e.executed
	for {
		if e.nowHead < len(e.nowq) && e.now <= deadline || e.nextAt() <= deadline {
			e.Step()
			continue
		}
		break
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.executed - start
}

// Pending returns the number of scheduled events not yet executed.
func (e *Engine) Pending() int { return e.w.n + e.heapLen() + len(e.nowq) - e.nowHead }

// LiveProcs returns the number of processes started with Go that have
// not yet returned. A non-zero value after Run indicates a process
// blocked forever (a modeling bug analogous to a goroutine leak).
func (e *Engine) LiveProcs() int { return e.procs }

// LiveProcNames returns the diagnostic names of processes that have not
// yet returned, in start order. Compaction removes only finished
// processes and preserves relative order, so the output is stable
// across an engine's whole lifetime.
func (e *Engine) LiveProcNames() []string {
	var names []string
	for _, p := range e.started {
		if !p.done {
			names = append(names, p.name)
		}
	}
	return names
}

// compactAfter is the minimum number of finished-but-retained processes
// before procExited compacts the started table.
const compactAfter = 32

// procExited is called (in engine context) each time a process body
// returns. Once enough finished processes accumulate, the started table
// is compacted in place — preserving start order for LiveProcNames —
// so a long-lived engine no longer retains every process it ever ran.
func (e *Engine) procExited() {
	e.deadProcs++
	if e.deadProcs < compactAfter || e.deadProcs*2 < len(e.started) {
		return
	}
	live := e.started[:0]
	for _, p := range e.started {
		if !p.done {
			live = append(live, p)
		}
	}
	for i := len(live); i < len(e.started); i++ {
		e.started[i] = nil
	}
	e.started = live
	e.deadProcs = 0
}

// getWaiters hands out a pooled gate-waiter slice.
func (e *Engine) getWaiters() []func() {
	if n := len(e.waiterFree); n > 0 {
		s := e.waiterFree[n-1]
		e.waiterFree[n-1] = nil
		e.waiterFree = e.waiterFree[:n-1]
		return s
	}
	return make([]func(), 0, 4)
}

// putWaiters returns a drained waiter slice to the pool. Oversized
// slices and an oversized pool are dropped so one pathological gate
// cannot pin memory.
func (e *Engine) putWaiters(s []func()) {
	if cap(s) > 1024 || len(e.waiterFree) >= 256 {
		return
	}
	for i := range s {
		s[i] = nil
	}
	e.waiterFree = append(e.waiterFree, s[:0])
}

// RunChecked is Run with a quiescence watchdog: if the event queue
// drains while processes are still blocked — a lost wakeup that a bare
// Run would silently swallow, leaving the caller with a truncated
// simulation — it reports which named processes are stuck and aborts
// them, so nothing stays parked. The returned time is valid either way.
func (e *Engine) RunChecked() (Time, error) {
	t := e.Run()
	if e.procs > 0 {
		e.Abort()
		return t, fmt.Errorf("sim: quiescent with %d process(es) still blocked: %s",
			e.procs, strings.Join(e.LiveProcNames(), ", "))
	}
	return t, nil
}

// Abort unwinds every parked process without resuming its simulation:
// the body panics out of its blocking call, running its deferred
// functions, and the process's coroutine exits. Aborted processes still
// count in LiveProcs and LiveProcNames, for post-mortem reports, so the
// engine can no longer be recycled and must not be run again. Call
// Abort from engine context — between events, never from a process
// body. It is a no-op on an engine with no parked process.
func (e *Engine) Abort() {
	for _, p := range e.started {
		p.co.Stop()
	}
}
