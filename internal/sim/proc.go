//go:build go1.23

package sim

import "repro/internal/coro"

// Proc is a simulated process: sequential code that can block on
// simulated time (Sleep), one-shot events (Wait), and resources
// (AcquireToken). A process expresses an agent as ordinary
// straight-line Go code. Its blocking calls are the continuation
// primitives (Engine.Delay, Gate.Await, TokenPool.Acquire,
// Gate.AwaitTimeout) plus a coroutine switch, so a hot agent that is
// rewritten as a state machine on those primitives keeps the same
// instants, order and event count and saves the switch. Every agent of
// the simulated platform — the per-core schedulers, the SWQ fetcher and
// the open-loop server's workers — has been rewritten that way; Proc
// remains for benchmark probes and tests, where straight-line code is
// worth the switch.
//
// Under the hood each Proc is a runtime coroutine (coro.Coro): the
// engine resumes it with Next, and a blocking call hands control back
// with Yield. The switch goes directly from one goroutine to the other
// without passing through the scheduler's run queues, and exactly one
// of {engine, some process} runs at any instant, so execution is
// single-threaded and fully deterministic. A panic in the body unwinds
// to the caller of Engine.Run; Engine.Abort unwinds every parked
// process.
type Proc struct {
	eng  *Engine
	name string
	done bool
	body func(*Proc) // until the process starts
	co   coro.Coro[*Proc, struct{}]

	// resumeFn is created once per process and reused for every
	// blocking call, so Sleep/Wait do not allocate a closure per
	// invocation.
	resumeFn func()
}

// Go starts fn as a simulated process at the current simulated time.
// The name is used in diagnostics only.
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name, body: fn}
	p.resumeFn = p.engineResume
	e.procs++
	e.started = append(e.started, p)
	// The process body starts executing when this event fires; until its
	// first blocking call it runs inline within the event.
	e.pushNow(p.engineStart)
	return p
}

// engineStart creates the process coroutine and runs it to its first
// block (or exit). Runs as an engine event.
func (p *Proc) engineStart() {
	p.co.Start(p.body, p)
	p.body = nil
	p.engineResume()
}

// engineResume runs the parked process until it blocks again or exits.
// It runs as an engine event, never from process context. The engine
// notices process exit here, in engine context, so the bookkeeping
// needs no synchronization beyond the coroutine switch itself.
func (p *Proc) engineResume() {
	if _, ok := p.co.Next(); !ok {
		p.done = true
		p.eng.procs--
		p.eng.procExited()
	}
}

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Name returns the diagnostic name given to Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// block parks the process until resumeFn is invoked from engine
// context. Must only be called from within the process body. If the
// engine aborts the process instead, block unwinds the body.
func (p *Proc) block() { p.co.Yield(struct{}{}) }

// Sleep blocks the process for d of simulated time.
func (p *Proc) Sleep(d Time) {
	if p.eng.Delay(d, p.resumeFn) {
		p.block()
	}
}

// Wait blocks the process until g fires. If g has already fired, Wait
// returns immediately without yielding.
func (p *Proc) Wait(g *Gate) {
	if g.Await(p.resumeFn) {
		p.block()
	}
}

// WaitTimeout blocks the process until g fires or d elapses, whichever
// comes first, and reports whether the gate fired. If g has already
// fired it returns true immediately; d <= 0 checks the gate without
// blocking. The losing wakeup (late gate fire or stale timer) is
// discarded, so the process resumes exactly once.
func (p *Proc) WaitTimeout(g *Gate, d Time) bool {
	t, park := g.AwaitTimeout(d, p.resumeFn)
	if park {
		p.block()
	}
	return t.GateFired()
}
