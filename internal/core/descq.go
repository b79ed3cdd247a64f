package core

import (
	"fmt"

	"repro/internal/attrib"
	"repro/internal/device"
	"repro/internal/hostmem"
	"repro/internal/observe"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/uthread"
)

// swqThreadState tracks one thread's lifecycle under the FIFO scheduler.
type swqThreadState struct {
	started   bool
	payload   [][]byte // data to deliver on the next resume
	data      [][]byte // in-progress batch results, by slot; reused for the thread's every batch
	remaining int      // descriptors of the current batch still pending

	// atr holds the batch's attribution ledgers awaiting delivery, by
	// slot; nil when attribution is off. It is cleared, not dropped,
	// after each batch, so zero handles past the batch are no-ops.
	atr []attrib.Access
}

// descWait maps an outstanding descriptor to the thread slot its data
// belongs to. The addr/target/attempts/deadline fields drive timeout
// recovery under fault injection: an overdue descriptor is resubmitted
// under a fresh ID (so a straggling completion of the old one is simply
// discarded as unknown) until the retry budget runs out. Only the
// waiting ring refers to a record, so it is recycled once it leaves the
// ring for good.
type descWait struct {
	th        *uthread.Thread
	slot      int
	submitted sim.Time // original submission, for latency accounting
	addr      uint64
	target    uint64
	attempts  int
	deadline  sim.Time
	obs       observe.Access // survives resubmission
}

// descQueue is one core's descriptor-queue machinery, shared by the
// software-queue and kernel-queue mechanisms: the in-memory request and
// completion rings, the device endpoint serving them, the ready FIFO,
// each thread's batch state, and the descriptors awaiting completion.
// The mechanisms keep only their scheduling policy — what submission,
// completion, and resumption cost — and where their attribution
// ledgers charge it.
//
// Its blocking procedures — submitting a batch, ringing the doorbell,
// and the park-or-recover wait — are steps of the owning core's
// continuation: the core starts one (startSubmit, startDoorbell,
// startWait), then calls run from one of its own states until run
// reports the procedure finished. While run reports a park, the core
// returns; its resumeFn, which the queue waits with, lands it back in
// that state.
type descQueue struct {
	e        *Env
	coreID   int
	resumeFn func() // the owning core's continuation
	rq       *hostmem.RequestQueue
	cq       *hostmem.CompletionQueue
	ep       *device.SWQEndpoint
	ready    *uthread.FIFO
	states   []swqThreadState          // by thread ID
	waiting  hostmem.IDRing[*descWait] // outstanding descriptors, by ID

	waitFree []*descWait // settled descriptor records, for reuse

	// The procedure in progress.
	step        descStep
	th          *uthread.Thread // submit: the batch's thread
	addrs       []uint64        // submit: the batch's addresses
	i           int             // submit: next of addrs; recovery: next of ids
	obs         observe.Access  // submit: descriptor i's observers
	gate        *sim.Gate       // wait: the completion gate
	timeout     *sim.Timeout    // wait: the recovery wait's race
	ids         []uint64        // recovery: outstanding IDs at expiry, increasing
	w           *descWait       // recovery: the descriptor being resubmitted
	resubmitted bool            // recovery: ring the doorbell when done
}

// descStep is a state of the queue's procedure in progress.
type descStep uint8

const (
	dqIdle        descStep = iota // no procedure, or the last one finished
	dqSubmit                      // open descriptor i, charge its cost
	dqSubmitted                   // descriptor i's cost is paid: push it
	dqRing                        // charge the doorbell write
	dqRung                        // the doorbell write is issued
	dqWait                        // nothing runnable: wait for a completion
	dqWoke                        // the bounded recovery wait ended
	dqResubmit                    // recover overdue descriptors, ids[i] onwards
	dqResubmitted                 // w's rewrite cost is paid: push it
)

// newDescQueue builds core coreID's queues and device endpoint, hooks
// their depths to the occupancy gauges, and makes every thread ready.
// resume is the owning core's continuation. Thread states are indexed
// by thread ID, so threads[i] must have ID i.
func newDescQueue(e *Env, coreID int, threads []*uthread.Thread, resume func()) *descQueue {
	q := &descQueue{
		e:        e,
		coreID:   coreID,
		resumeFn: resume,
		rq:       hostmem.NewRequestQueue(),
		cq:       hostmem.NewCompletionQueue(),
		ready:    uthread.NewFIFO(),
		states:   make([]swqThreadState, len(threads)),
	}
	q.ep = e.dev.NewSWQEndpoint(coreID, q.rq, q.cq)
	q.rq.OnChange = e.gauge(telemetry.GaugeSQ, fmt.Sprintf("sq/core%d", coreID))
	q.cq.OnChange = e.gauge(telemetry.GaugeCQ, fmt.Sprintf("cq/core%d", coreID))
	q.ready.OnChange = e.gauge(telemetry.GaugeRunnable, fmt.Sprintf("runnable/core%d", coreID))
	for i, th := range threads {
		if th.ID() != i {
			panic(fmt.Sprintf("core: thread %d of core %d has ID %d; descriptor queues need IDs 0..%d in order", i, coreID, th.ID(), len(threads)-1))
		}
		q.ready.Push(th)
	}
	return q
}

// stop folds the endpoint's burst statistics and the request queue's
// high-water mark into the run totals, then stops the endpoint.
func (q *descQueue) stop() {
	c := &q.e.c
	c.fetchBursts += q.ep.FetchBursts()
	c.emptyBursts += q.ep.EmptyBursts()
	if q.rq.MaxDepth() > c.maxRQDepth {
		c.maxRQDepth = q.rq.MaxDepth()
	}
	q.ep.Stop()
}

// startSubmit begins writing one read descriptor per address of th's
// batch, each charged the marginal per-descriptor queue-management
// cost on the core (§V-C: overhead grows with the number of accesses
// "even when the accesses are batched"). The caller charges the
// batch's fixed cost.
func (q *descQueue) startSubmit(th *uthread.Thread, addrs []uint64) {
	st := &q.states[th.ID()]
	st.data = resize(st.data, len(addrs))
	st.remaining = len(addrs)
	q.th, q.addrs, q.i = th, addrs, 0
	q.step = dqSubmit
}

// push writes descriptor i of the batch being submitted into the
// request queue and records it as outstanding.
func (q *descQueue) push() {
	e, now := q.e, q.e.eng.Now()
	addr := q.addrs[q.i]
	e.issued(now, q.obs)
	q.obs.Span = e.beginSpan(q.coreID, addr, now)
	target := responseTarget(q.coreID, q.th.ID(), q.i)
	id := q.rq.Push(addr, target, now, q.obs)
	w := q.newWait()
	w.th, w.slot, w.submitted = q.th, q.i, now
	w.addr, w.target = addr, target
	w.deadline = now + e.cfg.RetryTimeout(0)
	w.obs = q.obs
	q.waiting.Put(id, w)
	q.obs = observe.Access{}
}

// run continues the procedure in progress until it must wait (true:
// the caller parks, and its resumeFn calls run again) or has finished
// (false).
func (q *descQueue) run() bool {
	e := q.e
	for {
		switch q.step {
		case dqIdle:
			return false

		case dqSubmit:
			if q.i == len(q.addrs) {
				q.th, q.addrs = nil, nil
				q.step = dqIdle
				continue
			}
			// The ledger opens before the per-descriptor cost, the span
			// after it.
			q.obs = observe.Access{Ledger: e.at.Open(e.eng.Now())}
			q.step = dqSubmitted
			if e.eng.Delay(e.cfg.SWQPerAccessOverhead, q.resumeFn) {
				return true
			}

		case dqSubmitted:
			q.push()
			q.i++
			q.step = dqSubmit

		case dqRing:
			q.step = dqRung
			if e.eng.Delay(e.cfg.DoorbellMMIO, q.resumeFn) {
				return true
			}

		case dqRung:
			q.rq.ClearDoorbellRequested()
			q.ep.Doorbell()
			q.step = dqIdle

		case dqWait:
			if q.waitOrRecover() {
				return true
			}

		case dqWoke:
			q.woke()

		case dqResubmit:
			if q.resubmitOverdue() {
				return true
			}

		case dqResubmitted:
			q.resubmit()
		}
	}
}

// newWait takes a descriptor record off the free list, or builds one.
func (q *descQueue) newWait() *descWait {
	if n := len(q.waitFree); n > 0 {
		w := q.waitFree[n-1]
		q.waitFree = q.waitFree[:n-1]
		return w
	}
	return &descWait{}
}

// settled recycles the record of a descriptor that left the waiting
// set for good (delivered or abandoned); nothing else refers to it.
func (q *descQueue) settled(w *descWait) {
	*w = descWait{}
	q.waitFree = append(q.waitFree, w)
}

// startDoorbell begins ringing the MMIO doorbell, waking the device's
// request fetcher once the write is issued.
func (q *descQueue) startDoorbell() { q.step = dqRing }

// deliver matches drained completions to their outstanding descriptors
// and lands each one's data in its thread's batch. Completions of
// unknown IDs — fire-and-forget writes, stragglers of resubmitted
// descriptors, and duplicates — are dropped, and so is any response
// line one of them landed, which no descriptor will read. Each ledger
// is charged completion wait from the device's post until waitEnd and
// switch overhead from there until now (nothing when waitEnd is now);
// it then parks on the thread state until the scheduler resumes the
// thread.
func (q *descQueue) deliver(compls []hostmem.Completion, waitEnd sim.Time) {
	now := q.e.eng.Now()
	for _, compl := range compls {
		w, ok := q.waiting.Take(compl.ID)
		if !ok {
			q.ep.Data(compl.ID)
			continue
		}
		// Windowed at the drain time (monotone); the latency itself
		// still ends at the device's post time.
		q.e.rec.Finished(now)
		q.e.delivered(now, compl.Posted-w.submitted)
		w.obs.Span.End(compl.Posted)
		w.obs.Ledger.To(attrib.PhaseComplWait, waitEnd)
		w.obs.Ledger.To(attrib.PhaseSwitch, now)
		st := &q.states[w.th.ID()]
		if w.obs.Ledger != (attrib.Access{}) {
			if n := len(st.data) - len(st.atr); n > 0 {
				st.atr = append(st.atr, make([]attrib.Access, n)...)
			}
			st.atr[w.slot] = w.obs.Ledger
		}
		q.fill(w.th, w.slot, q.ep.Data(compl.ID))
		q.settled(w)
	}
}

// fill lands one descriptor's data in slot of th's batch. The thread
// wakes with its whole batch; threads become ready in completion order
// (FIFO, §IV-B).
func (q *descQueue) fill(th *uthread.Thread, slot int, data []byte) {
	st := &q.states[th.ID()]
	st.data[slot] = data
	st.remaining--
	if st.remaining == 0 {
		st.payload = st.data
		q.ready.Push(th)
	}
}

// responseTarget synthesizes a distinct host-memory response buffer
// address per (core, thread, slot); the software queues never share
// response locations (§V-C).
func responseTarget(coreID, threadID, slot int) uint64 {
	return 1<<63 | uint64(coreID)<<40 | uint64(threadID)<<20 | uint64(slot)<<6
}
