package sim

import (
	"fmt"
	"strings"
	"sync"
)

// event is a single scheduled callback. Events are stored by value in
// the engine's heap: no interface boxing and no per-event pointer
// allocation, which matters because every figure cell of the
// reproduction is millions of events.
type event struct {
	at  Time
	seq uint64 // tie-breaker: events at the same time fire in scheduling order
	fn  func()
}

// less orders events by (at, seq) — the same total order the original
// container/heap implementation used.
func (a event) less(b event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

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
// Internally the engine keeps two pending-event structures:
//
//   - a 4-ary min-heap over []event, ordered by (at, seq), for events
//     scheduled at future times;
//   - a FIFO now-queue for events scheduled at the current timestamp
//     (Gate.Fire waiters, Engine.Go starts, OnFire on fired gates — a
//     large fraction of all events), which bypass the heap entirely.
//
// The split preserves the documented ordering: an event can only enter
// the heap at time t while now < t, and can only enter the now-queue at
// t while now == t, so every heap event at time t was scheduled (and
// sequence-numbered) before every now-queue event at t. Draining heap
// events at `now` before now-queue events is therefore exactly global
// scheduling order.
type Engine struct {
	now      Time
	heap     []event // 4-ary min-heap by (at, seq)
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
	if s, ok := scratchPool.Get().(*scratch); ok {
		e.heap = s.heap
		e.nowq = s.nowq
		e.started = s.started
		e.waiterFree = s.waiterFree
	}
	return e
}

// Recycle returns the engine's backing arrays (event heap, now-queue,
// process table, waiter free list) to the package pool for the next
// NewEngine call. It is a no-op unless the engine is fully quiescent —
// no pending events and no live processes — so a run that errored out
// keeps its state for post-mortem inspection. The engine must not be
// used again after Recycle.
func (e *Engine) Recycle() {
	if e.procs != 0 || e.Pending() != 0 {
		return
	}
	clear(e.started)
	s := &scratch{
		heap:       e.heap[:0],
		nowq:       e.nowq[:0],
		started:    e.started[:0],
		waiterFree: e.waiterFree,
	}
	e.heap, e.nowq, e.started, e.waiterFree = nil, nil, nil, nil
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
// now-queue, skipping the heap.
func (e *Engine) At(t Time, fn func()) {
	if t <= e.now {
		if t < e.now {
			panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
		}
		e.pushNow(fn)
		return
	}
	e.seq++
	e.heapPush(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

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

// heapPush inserts ev into the 4-ary min-heap.
func (e *Engine) heapPush(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !ev.less(h[parent]) {
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
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the callback reference
	h = h[:n]
	e.heap = h
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			hi := c + 4
			if hi > n {
				hi = n
			}
			for j := c + 1; j < hi; j++ {
				if h[j].less(h[m]) {
					m = j
				}
			}
			if !h[m].less(last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top
}

// Step executes the single earliest pending event and reports whether
// one existed. Heap events at the current time run before now-queue
// events: they were necessarily scheduled earlier (see the type
// comment), so this is global scheduling order.
func (e *Engine) Step() bool {
	if e.nowHead < len(e.nowq) {
		if len(e.heap) == 0 || e.heap[0].at > e.now {
			fn := e.popNow()
			e.executed++
			fn()
			return true
		}
	}
	if len(e.heap) == 0 {
		return false
	}
	ev := e.heapPop()
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
		if e.nowHead < len(e.nowq) && e.now <= deadline {
			e.Step()
			continue
		}
		if len(e.heap) > 0 && e.heap[0].at <= deadline {
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
func (e *Engine) Pending() int { return len(e.heap) + len(e.nowq) - e.nowHead }

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
