package core

import (
	"sort"

	"repro/internal/attrib"
	"repro/internal/platform"
	"repro/internal/sim"
)

// This file holds the descQueue's descriptor-timeout recovery: the
// deadline scan, the resubmit/abandon state machine, and the
// park-or-recover wait both queue schedulers enter when no thread is
// ready and the completion queue is empty.

// minDeadline returns the earliest recovery deadline among outstanding
// descriptors (order-independent, so map iteration is safe).
func minDeadline(waiting map[uint64]descWait) sim.Time {
	var min sim.Time
	first := true
	for _, w := range waiting {
		if first || w.deadline < min {
			min = w.deadline
			first = false
		}
	}
	return min
}

// waitOrRecover parks the scheduler on the completion gate when it has
// nothing runnable. Fault-free (or with nothing outstanding) it waits
// indefinitely — a completion must eventually arrive. Under fault
// injection it bounds the wait by the earliest descriptor deadline, so
// a lost completion or a swallowed doorbell cannot hang the core: on
// expiry it runs timeout recovery over every overdue descriptor.
// Callers must obtain the gate before their final completion-queue
// drain to avoid a lost wakeup.
func (q *descQueue) waitOrRecover(p *sim.Proc, gate *sim.Gate) {
	if q.e.faults == nil || len(q.waiting) == 0 {
		p.Wait(gate)
		return
	}
	if !p.WaitTimeout(gate, minDeadline(q.waiting)-p.Now()) {
		q.resubmitOverdue(p)
	}
}

// resubmitOverdue performs timeout recovery for every outstanding
// descriptor whose deadline has passed: within the retry budget the
// descriptor is re-pushed under a fresh ID with a backed-off deadline
// (the rewrite cost is charged to the core); past it the access is
// abandoned and its slot filled with a zero line so the thread still
// completes. If anything was resubmitted the doorbell is rung
// unconditionally — the fetcher may be parked on a doorbell that a
// fault swallowed. Descriptor IDs are scanned in sorted order to keep
// the run deterministic.
func (q *descQueue) resubmitOverdue(p *sim.Proc) {
	e := q.e
	ids := make([]uint64, 0, len(q.waiting))
	for id := range q.waiting {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	resubmitted := false
	for _, id := range ids {
		w := q.waiting[id]
		if w.deadline > p.Now() {
			continue
		}
		delete(q.waiting, id)
		e.timedOut(p.Now())
		w.sp.Point(p.Now(), "timeout")
		// Waiting out the timeout is retry backoff; the gap between the
		// deadline expiring and the host acting on it is timeout slop.
		w.aw.To(attrib.PhaseRetry, w.deadline)
		w.aw.To(attrib.PhaseSlop, p.Now())
		if w.attempts >= e.cfg.MaxRetries {
			// Out of budget: abandon with a zero-filled line.
			e.abandoned(p.Now())
			e.rec.Finished(p.Now())
			e.delivered(p.Now(), p.Now()-w.submitted)
			w.sp.Point(p.Now(), "abandoned")
			w.sp.End(p.Now())
			w.aw.Close(attrib.PhaseSlop, p.Now())
			q.fill(w, make([]byte, platform.CacheLineBytes))
			continue
		}
		e.retried(p.Now())
		p.Sleep(e.cfg.SWQPerAccessOverhead)
		w.attempts++
		w.deadline = p.Now() + e.cfg.RetryTimeout(w.attempts)
		w.sp.Point(p.Now(), "retry")
		w.aw.To(attrib.PhaseRetry, p.Now())
		newID := q.rq.PushTracked(w.addr, w.target, p.Now(), w.sp, w.aw)
		q.waiting[newID] = w
		resubmitted = true
	}
	if resubmitted {
		q.doorbell(p)
	}
}
