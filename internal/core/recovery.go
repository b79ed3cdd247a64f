package core

import (
	"repro/internal/attrib"
	"repro/internal/hostmem"
	"repro/internal/replay"
	"repro/internal/sim"
)

// This file holds the descQueue's descriptor-timeout recovery: the
// deadline scan, the resubmit/abandon state machine, and the
// park-or-recover wait both queue schedulers enter when no thread is
// ready and the completion queue is empty.

// minDeadline returns the earliest recovery deadline among outstanding
// descriptors.
func minDeadline(waiting *hostmem.IDRing[*descWait]) sim.Time {
	var min sim.Time
	first := true
	waiting.Range(func(_ uint64, w *descWait) {
		if first || w.deadline < min {
			min = w.deadline
			first = false
		}
	})
	return min
}

// startWait begins the wait a queue scheduler enters when it has
// nothing runnable and the completion queue is empty. Fault-free (or
// with nothing outstanding) it waits on the completion gate
// indefinitely — a completion must eventually arrive. Under fault
// injection it bounds the wait by the earliest descriptor deadline, so
// a lost completion or a swallowed doorbell cannot hang the core: on
// expiry it runs timeout recovery over every overdue descriptor.
// Callers must obtain the gate before their final completion-queue
// drain to avoid a lost wakeup.
func (q *descQueue) startWait(gate *sim.Gate) {
	q.gate = gate
	q.step = dqWait
}

// waitOrRecover parks on the completion gate, bounded under fault
// injection by the earliest deadline, reporting whether it parked.
func (q *descQueue) waitOrRecover() bool {
	gate := q.gate
	q.gate = nil
	if q.e.faults == nil || q.waiting.Len() == 0 {
		q.step = dqIdle
		return gate.Await(q.resumeFn)
	}
	var park bool
	q.timeout, park = gate.AwaitTimeout(minDeadline(&q.waiting)-q.e.eng.Now(), q.resumeFn)
	q.step = dqWoke
	return park
}

// woke ends the bounded wait: a completion ends the procedure, an
// expired deadline starts recovery. Descriptor IDs are scanned in
// increasing order, the ring's, to keep the run deterministic.
func (q *descQueue) woke() {
	fired := q.timeout.GateFired()
	q.timeout = nil
	if fired {
		q.step = dqIdle
		return
	}
	q.ids = q.ids[:0]
	q.waiting.Range(func(id uint64, _ *descWait) { q.ids = append(q.ids, id) })
	q.i, q.resubmitted = 0, false
	q.step = dqResubmit
}

// resubmitOverdue performs timeout recovery for every outstanding
// descriptor whose deadline has passed, from ids[i] on: within the
// retry budget the descriptor is re-pushed under a fresh ID with a
// backed-off deadline (the rewrite cost is charged to the core); past
// it the access is abandoned and its slot filled with a zero line so
// the thread still completes. If anything was resubmitted the doorbell
// is rung unconditionally — the fetcher may be parked on a doorbell
// that a fault swallowed. It reports whether it parked on a rewrite.
func (q *descQueue) resubmitOverdue() bool {
	e := q.e
	for ; q.i < len(q.ids); q.i++ {
		now := e.eng.Now()
		id := q.ids[q.i]
		w, _ := q.waiting.Get(id)
		if w.deadline > now {
			continue
		}
		q.waiting.Take(id)
		e.timedOut(now, w.obs)
		// Waiting out the timeout is retry backoff; the gap between the
		// deadline expiring and the host acting on it is timeout slop.
		w.obs.Ledger.To(attrib.PhaseRetry, w.deadline)
		w.obs.Ledger.To(attrib.PhaseSlop, now)
		if w.attempts >= e.cfg.MaxRetries {
			// Out of budget: abandon with a zero-filled line.
			e.abandoned(now, w.obs)
			e.rec.Finished(now)
			e.delivered(now, now-w.submitted)
			w.obs.Span.End(now)
			w.obs.Ledger.Close(attrib.PhaseSlop, now)
			q.fill(w.th, w.slot, replay.ZeroLine())
			q.settled(w)
			continue
		}
		e.retried(now)
		q.w = w
		q.step = dqResubmitted
		return e.eng.Delay(e.cfg.SWQPerAccessOverhead, q.resumeFn)
	}
	q.step = dqIdle
	if q.resubmitted {
		q.step = dqRing
	}
	return false
}

// resubmit re-pushes the overdue descriptor whose rewrite cost was just
// paid, then goes on with the scan.
func (q *descQueue) resubmit() {
	e, w, now := q.e, q.w, q.e.eng.Now()
	q.w = nil
	w.attempts++
	w.deadline = now + e.cfg.RetryTimeout(w.attempts)
	w.obs.Mark(now, "retry", attrib.PhaseRetry)
	newID := q.rq.Push(w.addr, w.target, now, w.obs)
	q.waiting.Put(newID, w)
	q.resubmitted = true
	q.i++
	q.step = dqResubmit
}
