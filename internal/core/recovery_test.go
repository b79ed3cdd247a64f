package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/observe"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/uthread"
)

// recoveryHarness assembles the minimal scheduler state the shared
// park-or-recover wait operates on: an Env (faulty or not), a core's
// descriptor queue, and one thread with a single-slot batch that is
// not yet on the ready FIFO.
type recoveryHarness struct {
	e  *Env
	q  *descQueue
	th *uthread.Thread
	c  *counters
}

func newRecoveryHarness(cfg platform.Config) *recoveryHarness {
	e := NewEnv(cfg, replay.ZeroBacking{})
	h := &recoveryHarness{e: e, q: newDescQueue(e, 0, nil), c: &e.c}
	h.th = uthread.New(0, func(*uthread.API) {})
	h.q.states[h.th] = &swqThreadState{data: make([][]byte, 1), remaining: 1}
	return h
}

// submit pushes one descriptor, lets the device-side fetch consume it,
// and registers it as outstanding with the given attempt count and a
// deadline d from now.
func (h *recoveryHarness) submit(p *sim.Proc, attempts int, d sim.Time) uint64 {
	id := h.q.rq.Push(0x1000, 0x2000, p.Now(), observe.Access{})
	h.q.rq.PopBurst(1) // descriptor is at the device; host queue is empty
	h.q.waiting[id] = &descWait{
		th: h.th, slot: 0, submitted: p.Now(),
		addr: 0x1000, target: 0x2000,
		attempts: attempts,
		deadline: p.Now() + d,
	}
	return id
}

func faultyRecoveryCfg() platform.Config {
	cfg := platform.Default()
	// A huge completion-queue bound arms the injector (so the recovery
	// paths are live) without ever actually delivering a fault, keeping
	// the test deterministic.
	cfg.Faults = fault.Plan{CQCapacity: 1 << 20}
	return cfg
}

// TestWaitCompletionOrRecoverParksWhenFaultFree pins the fault-free
// contract: with no injector the wait is unbounded — only a completion
// (gate fire) releases the scheduler, and no recovery ever runs.
func TestWaitCompletionOrRecoverParksWhenFaultFree(t *testing.T) {
	h := newRecoveryHarness(platform.Default())
	var woke sim.Time
	h.e.eng.Go("core", func(p *sim.Proc) {
		h.submit(p, 0, 2*sim.Microsecond)
		gate := h.q.ep.CompletionGate()
		h.e.eng.After(7*sim.Microsecond, gate.Fire) // completion long past the deadline
		h.q.waitOrRecover(p, gate)
		woke = p.Now()
		h.q.ep.Stop()
	})
	h.e.eng.Run()
	if woke != 7*sim.Microsecond {
		t.Errorf("fault-free wait woke at %v, want the gate fire at 7us", woke)
	}
	if h.c.timeouts != 0 || h.c.retries != 0 || len(h.q.waiting) != 1 {
		t.Errorf("fault-free wait ran recovery: timeouts=%d retries=%d waiting=%d",
			h.c.timeouts, h.c.retries, len(h.q.waiting))
	}
}

// TestWaitCompletionOrRecoverReturnsOnCompletion pins the happy faulty
// path: the gate firing before the earliest deadline releases the wait
// with no recovery.
func TestWaitCompletionOrRecoverReturnsOnCompletion(t *testing.T) {
	h := newRecoveryHarness(faultyRecoveryCfg())
	var woke sim.Time
	h.e.eng.Go("core", func(p *sim.Proc) {
		h.submit(p, 0, 5*sim.Microsecond)
		gate := h.q.ep.CompletionGate()
		h.e.eng.After(1*sim.Microsecond, gate.Fire)
		h.q.waitOrRecover(p, gate)
		woke = p.Now()
		h.q.ep.Stop()
	})
	h.e.eng.Run()
	if woke != 1*sim.Microsecond {
		t.Errorf("woke at %v, want the completion at 1us", woke)
	}
	if h.c.timeouts != 0 || len(h.q.waiting) != 1 {
		t.Errorf("completion before deadline still recovered: timeouts=%d waiting=%d",
			h.c.timeouts, len(h.q.waiting))
	}
}

// TestWaitCompletionOrRecoverResubmitsOverdue pins timeout recovery
// within the retry budget: the wait expires at the descriptor deadline,
// the descriptor is re-pushed under a fresh ID with a backed-off
// deadline, and the doorbell is re-rung.
func TestWaitCompletionOrRecoverResubmitsOverdue(t *testing.T) {
	h := newRecoveryHarness(faultyRecoveryCfg())
	cfg := h.e.cfg
	var oldID, newID uint64
	var neww descWait
	var woke sim.Time
	h.e.eng.Go("core", func(p *sim.Proc) {
		oldID = h.submit(p, 0, 2*sim.Microsecond)
		gate := h.q.ep.CompletionGate() // never fires: the completion was lost
		h.q.waitOrRecover(p, gate)
		woke = p.Now()
		for id, w := range h.q.waiting {
			newID, neww = id, *w
		}
		h.q.ep.Stop()
	})
	h.e.eng.Run()

	if woke < 2*sim.Microsecond {
		t.Fatalf("recovery ran at %v, before the 2us deadline", woke)
	}
	if h.c.timeouts != 1 || h.c.retries != 0+1 || h.c.abandoned != 0 {
		t.Errorf("counters = (timeouts %d, retries %d, abandoned %d), want (1, 1, 0)",
			h.c.timeouts, h.c.retries, h.c.abandoned)
	}
	if len(h.q.waiting) != 1 {
		t.Fatalf("%d outstanding descriptors after resubmit, want 1", len(h.q.waiting))
	}
	if newID == oldID {
		t.Error("resubmission reused the old descriptor ID; a straggling old completion would match it")
	}
	if neww.attempts != 1 {
		t.Errorf("resubmitted attempts = %d, want 1", neww.attempts)
	}
	if want := neww.addr; want != 0x1000 {
		t.Errorf("resubmitted addr = %#x, want 0x1000", want)
	}
	// The new deadline is backed off: stamped at re-push (before the
	// doorbell MMIO) as push time + RetryTimeout(1).
	min := 2*sim.Microsecond + cfg.RetryTimeout(1)
	max := woke + cfg.RetryTimeout(1)
	if neww.deadline < min || neww.deadline > max {
		t.Errorf("backed-off deadline %v outside [%v, %v]", neww.deadline, min, max)
	}
	if h.q.ep.DoorbellHits() == 0 {
		t.Error("resubmission never re-rang the doorbell")
	}
}

// TestWaitCompletionOrRecoverAbandonsPastBudget pins the give-up path:
// a descriptor out of retries is abandoned — slot zero-filled, latency
// recorded, thread made runnable — rather than resubmitted.
func TestWaitCompletionOrRecoverAbandonsPastBudget(t *testing.T) {
	h := newRecoveryHarness(faultyRecoveryCfg())
	h.e.eng.Go("core", func(p *sim.Proc) {
		h.submit(p, h.e.cfg.MaxRetries, 2*sim.Microsecond)
		gate := h.q.ep.CompletionGate()
		h.q.waitOrRecover(p, gate)
		h.q.ep.Stop()
	})
	h.e.eng.Run()

	if h.c.abandoned != 1 || h.c.retries != 0 {
		t.Errorf("counters = (abandoned %d, retries %d), want (1, 0)", h.c.abandoned, h.c.retries)
	}
	if len(h.q.waiting) != 0 || h.q.rq.Len() != 0 {
		t.Errorf("abandoned descriptor still tracked: waiting=%d rq=%d", len(h.q.waiting), h.q.rq.Len())
	}
	st := h.q.states[h.th]
	if st.remaining != 0 || st.payload == nil {
		t.Fatalf("thread batch not completed: remaining=%d payload=%v", st.remaining, st.payload)
	}
	line := st.data[0]
	if len(line) != platform.CacheLineBytes {
		t.Fatalf("abandoned slot line is %d bytes, want %d", len(line), platform.CacheLineBytes)
	}
	for _, b := range line {
		if b != 0 {
			t.Fatal("abandoned slot not zero-filled")
		}
	}
	if got := h.q.ready.Pop(); got != h.th {
		t.Error("abandoning the last slot did not make the thread runnable")
	}
}
