package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// scriptOp is one blocking step of a scripted agent.
type scriptOp struct {
	kind int  // opSleep, opWait, opAcquire, opTimeout
	d    Time // sleep length, token hold time, or timeout
	gate int  // gate index for opWait and opTimeout
	pool int  // pool index for opAcquire
}

const (
	opSleep = iota
	opWait
	opAcquire
	opTimeout
)

// script is a seeded workload for the wait primitives: agents that
// sleep (zero-length sleeps included), wait on gates (some fired before
// any agent starts), take tokens (some free, some contended) and race
// gates against timers (so stale timer and gate arms are left behind),
// plus the times each gate fires — never, for some.
type script struct {
	agents   [][]scriptOp
	fireAt   []Time // per gate; negative: never fires
	capacity []int  // per token pool
}

func newScript(seed int64) script {
	rng := rand.New(rand.NewSource(seed))
	s := script{fireAt: make([]Time, 6), capacity: []int{1, 2}}
	for i := range s.fireAt {
		switch rng.Intn(4) {
		case 0:
			s.fireAt[i] = 0 // fired before any agent starts
		case 1:
			s.fireAt[i] = -1 // never fires
		default:
			s.fireAt[i] = Time(rng.Intn(40))
		}
	}
	agents := 2 + rng.Intn(4)
	for a := 0; a < agents; a++ {
		ops := make([]scriptOp, 3+rng.Intn(10))
		for i := range ops {
			op := scriptOp{kind: rng.Intn(4), d: Time(rng.Intn(6)), gate: rng.Intn(len(s.fireAt)), pool: rng.Intn(len(s.capacity))}
			if op.kind == opWait && s.fireAt[op.gate] < 0 {
				op.kind = opSleep // a wait on a gate that never fires would strand the agent
			}
			ops[i] = op
		}
		s.agents = append(s.agents, ops)
	}
	return s
}

// scriptWorld is the shared engine state of one run of a script.
type scriptWorld struct {
	e     *Engine
	gates []*Gate
	pools []*TokenPool
	log   []string
}

func newScriptWorld(s script) *scriptWorld {
	w := &scriptWorld{e: NewEngine()}
	for _, at := range s.fireAt {
		g := w.e.NewGate()
		w.gates = append(w.gates, g)
		if at >= 0 {
			w.e.At(at, g.Fire)
		}
	}
	for i, c := range s.capacity {
		w.pools = append(w.pools, w.e.NewTokenPool(fmt.Sprint("pool", i), c))
	}
	return w
}

// done logs agent a finishing step i at the current instant; a token
// is released after its hold time.
func (w *scriptWorld) done(a, i int, op scriptOp, fired bool) {
	w.log = append(w.log, fmt.Sprintf("a%d.%d kind=%d fired=%v @%v", a, i, op.kind, fired, w.e.Now()))
	if op.kind == opAcquire {
		w.e.After(op.d, w.pools[op.pool].Release)
	}
}

// runProcs runs the script with every agent a Proc.
func runProcs(s script) ([]string, uint64) {
	w := newScriptWorld(s)
	for a, ops := range s.agents {
		a, ops := a, ops
		w.e.Go(fmt.Sprint("agent", a), func(p *Proc) {
			for i, op := range ops {
				fired := false
				switch op.kind {
				case opSleep:
					p.Sleep(op.d)
				case opWait:
					p.Wait(w.gates[op.gate])
				case opAcquire:
					p.AcquireToken(w.pools[op.pool])
				case opTimeout:
					fired = p.WaitTimeout(w.gates[op.gate], op.d)
				}
				w.done(a, i, op, fired)
			}
		})
	}
	w.e.Run()
	return w.log, w.e.Executed()
}

// contAgent is one agent as an engine continuation: the state machine
// shape the schedulers use, with one step per former blocking call.
type contAgent struct {
	t        *testing.T
	w        *scriptWorld
	id       int
	ops      []scriptOp
	i        int
	parked   bool
	parkedAt Time
	timeout  *Timeout
	resumeFn func()
}

func (c *contAgent) resume() {
	if c.i > 0 && !c.parked {
		c.t.Fatalf("agent %d resumed while not parked (step %d)", c.id, c.i)
	}
	for {
		if c.parked {
			c.parked = false
			c.checkWake()
			c.finish()
		}
		if c.i == len(c.ops) {
			return
		}
		op := c.ops[c.i]
		var park bool
		switch op.kind {
		case opSleep:
			park = c.w.e.Delay(op.d, c.resumeFn)
		case opWait:
			park = c.w.gates[op.gate].Await(c.resumeFn)
		case opAcquire:
			park = c.w.pools[op.pool].Acquire(c.resumeFn)
		case opTimeout:
			c.timeout, park = c.w.gates[op.gate].AwaitTimeout(op.d, c.resumeFn)
		}
		if park {
			c.parked, c.parkedAt = true, c.w.e.Now()
			return
		}
		c.finish()
	}
}

// checkWake fails unless the agent woke when the wait it parked on
// ends, independently of Proc: a stale arm of an earlier race that
// resumed a later wait would wake it at the wrong instant.
func (c *contAgent) checkWake() {
	op, now := c.ops[c.i], c.w.e.Now()
	var ok bool
	switch op.kind {
	case opSleep:
		ok = now == c.parkedAt+op.d
	case opWait:
		g := c.w.gates[op.gate]
		ok = g.Fired() && g.FiredAt() == now
	case opAcquire:
		ok = c.w.pools[op.pool].InUse() > 0
	case opTimeout:
		g := c.w.gates[op.gate]
		if c.timeout.GateFired() {
			ok = g.FiredAt() == now && now <= c.parkedAt+op.d
		} else {
			ok = now == c.parkedAt+op.d
		}
	}
	if !ok {
		c.t.Fatalf("agent %d woke at %v from step %d (%+v) parked at %v", c.id, now, c.i, op, c.parkedAt)
	}
}

func (c *contAgent) finish() {
	op := c.ops[c.i]
	c.w.done(c.id, c.i, op, op.kind == opTimeout && c.timeout.GateFired())
	c.i++
}

// runContinuations runs the script with every agent a continuation,
// started by one now-queue event as Engine.Go starts a Proc.
func runContinuations(t *testing.T, s script) ([]string, uint64) {
	w := newScriptWorld(s)
	for a, ops := range s.agents {
		c := &contAgent{t: t, w: w, id: a, ops: ops}
		c.resumeFn = c.resume
		w.e.At(w.e.Now(), c.resumeFn)
	}
	w.e.Run()
	return w.log, w.e.Executed()
}

// TestContinuationsMatchProc: over seeded scripts, Delay, Await, Acquire
// and AwaitTimeout give the dispatch log, the instants and the event
// count that Proc's Sleep, Wait, AcquireToken and WaitTimeout give.
// Stale timer and gate arms are left in every script with a timeout;
// runContinuations fails if one resumes an agent that is not parked,
// or wakes a parked one at an instant its own wait does not end.
func TestContinuationsMatchProc(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		s := newScript(seed)
		procLog, procEvents := runProcs(s)
		contLog, contEvents := runContinuations(t, s)
		if !reflect.DeepEqual(procLog, contLog) || procEvents != contEvents {
			t.Fatalf("seed %d: continuations %v (%d events), procs %v (%d events)",
				seed, contLog, contEvents, procLog, procEvents)
		}
	}
}

// TestSatisfiedWaitsCostNoEvent: a zero-length delay, an await on a
// fired gate, a free token and a timeout race on a fired gate continue
// inline and schedule nothing.
func TestSatisfiedWaitsCostNoEvent(t *testing.T) {
	e := NewEngine()
	g := e.NewGate()
	e.At(0, g.Fire)
	e.Run()
	pool := e.NewTokenPool("free", 1)
	before := e.Executed()
	never := func() { t.Error("a satisfied wait scheduled its continuation") }
	if e.Delay(0, never) {
		t.Error("Delay(0) asked to park")
	}
	if g.Await(never) {
		t.Error("Await on a fired gate asked to park")
	}
	if pool.Acquire(never) {
		t.Error("Acquire with a free token asked to park")
	}
	if to, park := g.AwaitTimeout(Nanosecond, never); park || !to.GateFired() {
		t.Errorf("AwaitTimeout on a fired gate: park %v, gate fired %v", park, to.GateFired())
	}
	if to, park := e.NewGate().AwaitTimeout(0, never); park || to.GateFired() {
		t.Errorf("AwaitTimeout with no time left: park %v, gate fired %v", park, to.GateFired())
	}
	if e.Pending() != 0 {
		t.Errorf("%d events pending after satisfied waits", e.Pending())
	}
	e.Run()
	if e.Executed() != before {
		t.Errorf("satisfied waits ran %d events", e.Executed()-before)
	}
	if pool.InUse() != 1 {
		t.Errorf("Acquire granted %d tokens, want 1", pool.InUse())
	}
}
