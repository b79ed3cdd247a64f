package sim

// The continuation primitives below are the engine's blocking waits
// for code that is not a Proc: a state machine passes its bound resume
// function, and each primitive reports whether the caller must park —
// return and let fn run later as an engine event — or may continue
// inline because the wait is already satisfied. A satisfied wait
// schedules nothing, so it costs no event; an unsatisfied one costs
// exactly the event that resumes the caller. Proc's blocking calls are
// these primitives plus a coroutine switch.

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
func (g *Gate) OnFire(fn func()) {
	if !g.Await(fn) {
		g.eng.pushNow(fn)
	}
}

// Await is the continuation form of a wait on g. If g has already
// fired it reports false and schedules nothing: the caller continues
// inline. Otherwise fn becomes a waiter, run as an engine event when g
// fires, and Await reports true: the caller must park.
func (g *Gate) Await(fn func()) bool {
	if g.fired {
		return false
	}
	if g.waiters == nil {
		g.waiters = g.eng.getWaiters()
	}
	g.waiters = append(g.waiters, fn)
	return true
}

// Timeout is one gate-versus-timer race (Gate.AwaitTimeout). Its two
// arms share it: the first to run records the outcome, clears fn and
// resumes the waiter. The losing arm — a stale timer in the event heap
// or a late gate waiter — still runs as an event, but finds fn cleared:
// it never resumes the waiter, or a later wait of the waiter's, and it
// retains only this small record.
type Timeout struct {
	fn    func()
	fired bool
}

// The outcomes of a race that AwaitTimeout settles without parking.
var (
	gateAlreadyFired = &Timeout{fired: true}
	timerAlreadyDue  = &Timeout{}
)

// GateFired reports whether the gate won the race. It is final once
// the waiter has been resumed (or AwaitTimeout did not park).
func (t *Timeout) GateFired() bool { return t.fired }

func (t *Timeout) gateWin() {
	if fn := t.fn; fn != nil {
		t.fn = nil
		t.fired = true
		fn()
	}
}

func (t *Timeout) timerWin() {
	if fn := t.fn; fn != nil {
		t.fn = nil
		fn()
	}
}

// AwaitTimeout races g against a timer that expires d from now. When
// the outcome is known now — g has fired (the gate wins) or d <= 0 (the
// timer does) — it schedules nothing and reports park false. Otherwise
// it arms both and reports park true; fn then runs exactly once, as an
// engine event, when the first arm does. Either way the returned race
// tells the caller which arm won once it is resumed.
func (g *Gate) AwaitTimeout(d Time, fn func()) (t *Timeout, park bool) {
	if g.fired {
		return gateAlreadyFired, false
	}
	if d <= 0 {
		return timerAlreadyDue, false
	}
	t = &Timeout{fn: fn}
	g.Await(t.gateWin)
	g.eng.At(g.eng.now+d, t.timerWin)
	return t, true
}
