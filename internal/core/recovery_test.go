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
	h := &recoveryHarness{e: e, c: &e.c}
	h.th = uthread.NewStep(0, func([][]byte) (uthread.Request, bool) { return uthread.Request{}, false })
	h.q = newDescQueue(e, 0, []*uthread.Thread{h.th}, nil)
	h.q.ready.Pop() // the thread waits on its batch, so it is not ready
	h.q.states[h.th.ID()] = swqThreadState{data: make([][]byte, 1), remaining: 1}
	return h
}

// wait runs the queue's park-or-recover wait the way a scheduler does,
// as an engine continuation starting at time zero: setup prepares the
// queue and returns the completion gate to wait on, and then runs once
// the wait (with any recovery it did) has ended. The run ends when the
// engine drains.
func (h *recoveryHarness) wait(setup func() *sim.Gate, then func()) {
	started := false
	h.q.resumeFn = func() {
		if !started {
			started = true
			h.q.startWait(setup())
		}
		if h.q.run() {
			return
		}
		if then != nil {
			then()
		}
		h.q.ep.Stop()
	}
	h.e.eng.At(0, h.q.resumeFn)
	h.e.eng.Run()
}

// submit pushes one descriptor, lets the device-side fetch consume it,
// and registers it as outstanding with the given attempt count and a
// deadline d from now.
func (h *recoveryHarness) submit(attempts int, d sim.Time) uint64 {
	now := h.e.eng.Now()
	id := h.q.rq.Push(0x1000, 0x2000, now, observe.Access{})
	h.q.rq.PopBurst(1) // descriptor is at the device; host queue is empty
	h.q.waiting.Put(id, &descWait{
		th: h.th, slot: 0, submitted: now,
		addr: 0x1000, target: 0x2000,
		attempts: attempts,
		deadline: now + d,
	})
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
	h.wait(func() *sim.Gate {
		h.submit(0, 2*sim.Microsecond)
		gate := h.q.ep.CompletionGate()
		h.e.eng.After(7*sim.Microsecond, gate.Fire) // completion long past the deadline
		return gate
	}, func() { woke = h.e.eng.Now() })
	if woke != 7*sim.Microsecond {
		t.Errorf("fault-free wait woke at %v, want the gate fire at 7us", woke)
	}
	if h.c.timeouts != 0 || h.c.retries != 0 || h.q.waiting.Len() != 1 {
		t.Errorf("fault-free wait ran recovery: timeouts=%d retries=%d waiting=%d",
			h.c.timeouts, h.c.retries, h.q.waiting.Len())
	}
}

// TestWaitCompletionOrRecoverReturnsOnCompletion pins the happy faulty
// path: the gate firing before the earliest deadline releases the wait
// with no recovery.
func TestWaitCompletionOrRecoverReturnsOnCompletion(t *testing.T) {
	h := newRecoveryHarness(faultyRecoveryCfg())
	var woke sim.Time
	h.wait(func() *sim.Gate {
		h.submit(0, 5*sim.Microsecond)
		gate := h.q.ep.CompletionGate()
		h.e.eng.After(1*sim.Microsecond, gate.Fire)
		return gate
	}, func() { woke = h.e.eng.Now() })
	if woke != 1*sim.Microsecond {
		t.Errorf("woke at %v, want the completion at 1us", woke)
	}
	if h.c.timeouts != 0 || h.q.waiting.Len() != 1 {
		t.Errorf("completion before deadline still recovered: timeouts=%d waiting=%d",
			h.c.timeouts, h.q.waiting.Len())
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
	h.wait(func() *sim.Gate {
		oldID = h.submit(0, 2*sim.Microsecond)
		return h.q.ep.CompletionGate() // never fires: the completion was lost
	}, func() {
		woke = h.e.eng.Now()
		h.q.waiting.Range(func(id uint64, w *descWait) {
			newID, neww = id, *w
		})
	})

	if woke < 2*sim.Microsecond {
		t.Fatalf("recovery ran at %v, before the 2us deadline", woke)
	}
	if h.c.timeouts != 1 || h.c.retries != 0+1 || h.c.abandoned != 0 {
		t.Errorf("counters = (timeouts %d, retries %d, abandoned %d), want (1, 1, 0)",
			h.c.timeouts, h.c.retries, h.c.abandoned)
	}
	if h.q.waiting.Len() != 1 {
		t.Fatalf("%d outstanding descriptors after resubmit, want 1", h.q.waiting.Len())
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
	h.wait(func() *sim.Gate {
		h.submit(h.e.cfg.MaxRetries, 2*sim.Microsecond)
		return h.q.ep.CompletionGate()
	}, nil)

	if h.c.abandoned != 1 || h.c.retries != 0 {
		t.Errorf("counters = (abandoned %d, retries %d), want (1, 0)", h.c.abandoned, h.c.retries)
	}
	if h.q.waiting.Len() != 0 || h.q.rq.Len() != 0 {
		t.Errorf("abandoned descriptor still tracked: waiting=%d rq=%d", h.q.waiting.Len(), h.q.rq.Len())
	}
	st := &h.q.states[h.th.ID()]
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

// TestDeliverDiscardsStragglerLine pins that a straggler's response line
// does not outlive its completion. Every access straggles to 3x the
// device latency against a 2x timeout, so the first descriptor is
// resubmitted under a fresh ID (with a 4x backed-off deadline), and the
// first one's completion lands while the core still waits for the
// second. deliver no longer tracks the first ID; it must discard the
// line that ID landed rather than leave it in the endpoint until the
// run ends.
func TestDeliverDiscardsStragglerLine(t *testing.T) {
	cfg := platform.Default()
	cfg.Faults = fault.Plan{StragglerProb: 1, StragglerFactor: 3}
	cfg.AccessTimeout = 2 * cfg.DeviceLatency
	cfg.RetryBackoffFactor = 2
	h := newRecoveryHarness(cfg)
	q, eng := h.q, h.e.eng
	st := &q.states[h.th.ID()]

	step := 0
	q.resumeFn = func() {
		for !q.run() {
			switch step {
			case 0:
				q.startSubmit(h.th, []uint64{0x1000})
			case 1:
				q.startDoorbell()
			default:
				gate := q.ep.CompletionGate()
				q.deliver(q.cq.Drain(), eng.Now())
				if st.remaining == 0 {
					q.stop()
					return
				}
				if q.cq.Len() == 0 {
					q.startWait(gate)
				}
			}
			step++
		}
	}
	eng.At(0, q.resumeFn)
	eng.Run()

	if h.c.timeouts != 1 || h.c.retries != 1 || h.c.abandoned != 0 {
		t.Fatalf("counters = (timeouts %d, retries %d, abandoned %d), want (1, 1, 0)",
			h.c.timeouts, h.c.retries, h.c.abandoned)
	}
	if q.cq.Posted() != 2 || q.waiting.Len() != 0 {
		t.Fatalf("%d completions posted, %d descriptors outstanding; want 2 and 0",
			q.cq.Posted(), q.waiting.Len())
	}
	if len(st.data[0]) != platform.CacheLineBytes {
		t.Fatalf("resubmitted descriptor delivered a %d-byte line", len(st.data[0]))
	}
	if line := q.ep.Data(0); line != nil {
		t.Error("the straggler's line stayed in the endpoint after deliver dropped its completion")
	}
}
