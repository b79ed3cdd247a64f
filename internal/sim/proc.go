//go:build go1.23

package sim

import (
	"fmt"

	"repro/internal/coro"
)

// Proc is a simulated process: sequential code that can block on
// simulated time (Sleep), one-shot events (Wait), and resources
// (AcquireToken). Processes make it possible to express agents with
// complex sequential behavior — a CPU core cycling through user-level
// threads, or the device's request-fetcher state machine — as ordinary
// straight-line Go code instead of hand-written callback state machines.
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
	if d < 0 {
		panic(fmt.Sprintf("sim: %s sleeping for negative duration %v", p.name, d))
	}
	if d == 0 {
		return
	}
	p.eng.At(p.eng.now+d, p.resumeFn)
	p.block()
}

// SleepUntil blocks the process until absolute time t (a no-op if t is
// not in the future).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.eng.now {
		return
	}
	p.Sleep(t - p.eng.now)
}

// Wait blocks the process until g fires. If g has already fired, Wait
// returns immediately without yielding.
func (p *Proc) Wait(g *Gate) {
	if g.fired {
		return
	}
	g.onFire(p.resumeFn)
	p.block()
}

// wtArm is the shared state of one WaitTimeout: a gate arm racing a
// timer arm. The winning arm clears p before resuming, so the losing
// arm — which can sit in the event heap or a gate's waiter list long
// after the wait ended — retains only this empty struct, not the Proc
// and everything reachable from it.
type wtArm struct {
	p     *Proc
	fired bool
}

func (a *wtArm) gateWin() {
	p := a.p
	if p == nil {
		return
	}
	a.p = nil
	a.fired = true
	p.resumeFn()
}

func (a *wtArm) timerWin() {
	p := a.p
	if p == nil {
		return
	}
	a.p = nil
	p.resumeFn()
}

// WaitTimeout blocks the process until g fires or d elapses, whichever
// comes first, and reports whether the gate fired. If g has already
// fired it returns true immediately; d <= 0 checks the gate without
// blocking. The losing wakeup (late gate fire or stale timer) is
// discarded, so the process resumes exactly once.
func (p *Proc) WaitTimeout(g *Gate, d Time) bool {
	if g.fired {
		return true
	}
	if d <= 0 {
		return false
	}
	a := &wtArm{p: p}
	g.onFire(a.gateWin)
	p.eng.At(p.eng.now+d, a.timerWin)
	p.block()
	return a.fired
}

// Gate is a one-shot event that processes and callbacks can wait on.
// It is the simulated analogue of closing a channel: Fire releases all
// current and future waiters. Typical uses are "this device response has
// arrived" and "this thread's prefetched line is filled".
type Gate struct {
	eng     *Engine
	fired   bool
	firedAt Time
	waiters []func()
}

// NewGate returns an unfired gate bound to the engine.
func (e *Engine) NewGate() *Gate { return &Gate{eng: e} }

// Init readies g, a gate embedded by value in a caller's record, as an
// unfired gate bound to e. A record that is reused calls Init again
// once the gate has fired, which released its waiters; Init panics on
// an unfired gate that still has waiters, since they would never wake.
func (g *Gate) Init(e *Engine) {
	if g.waiters != nil {
		panic("sim: Init on a gate with waiters")
	}
	*g = Gate{eng: e}
}

// Fired reports whether the gate has fired.
func (g *Gate) Fired() bool { return g.fired }

// FiredAt returns the time the gate fired (zero if it has not).
func (g *Gate) FiredAt() Time { return g.firedAt }

// Fire releases all waiters at the current simulated time. Firing an
// already-fired gate panics, as it indicates two agents both believe
// they completed the same request.
func (g *Gate) Fire() {
	if g.fired {
		panic("sim: gate fired twice")
	}
	g.fired = true
	g.firedAt = g.eng.now
	for _, fn := range g.waiters {
		g.eng.pushNow(fn)
	}
	if g.waiters != nil {
		g.eng.putWaiters(g.waiters)
		g.waiters = nil
	}
}

// OnFire registers fn to run (as an engine event) when the gate fires,
// or immediately-as-an-event if it already has.
func (g *Gate) OnFire(fn func()) { g.onFire(fn) }

func (g *Gate) onFire(fn func()) {
	if g.fired {
		g.eng.pushNow(fn)
		return
	}
	if g.waiters == nil {
		g.waiters = g.eng.getWaiters()
	}
	g.waiters = append(g.waiters, fn)
}
