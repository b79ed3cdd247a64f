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
	// slot; nil when attribution is off or the batch had none complete.
	atr []*attrib.Access
}

// descWait maps an outstanding descriptor to the thread slot its data
// belongs to. The addr/target/attempts/deadline fields drive timeout
// recovery under fault injection: an overdue descriptor is resubmitted
// under a fresh ID (so a straggling completion of the old one is simply
// discarded as unknown) until the retry budget runs out. Only the
// waiting map refers to a record, so it is recycled once it leaves the
// map for good.
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
type descQueue struct {
	e       *Env
	coreID  int
	rq      *hostmem.RequestQueue
	cq      *hostmem.CompletionQueue
	ep      *device.SWQEndpoint
	ready   *uthread.FIFO
	states  map[*uthread.Thread]*swqThreadState
	waiting map[uint64]*descWait

	waitFree []*descWait // settled descriptor records, for reuse
}

// newDescQueue builds core coreID's queues and device endpoint, hooks
// their depths to the occupancy gauges, and makes every thread ready.
func newDescQueue(e *Env, coreID int, threads []*uthread.Thread) *descQueue {
	q := &descQueue{
		e:       e,
		coreID:  coreID,
		rq:      hostmem.NewRequestQueue(),
		cq:      hostmem.NewCompletionQueue(),
		ready:   uthread.NewFIFO(),
		states:  make(map[*uthread.Thread]*swqThreadState, len(threads)),
		waiting: make(map[uint64]*descWait),
	}
	q.ep = e.dev.NewSWQEndpoint(coreID, q.rq, q.cq)
	q.rq.OnChange = e.gauge(telemetry.GaugeSQ, fmt.Sprintf("sq/core%d", coreID))
	q.cq.OnChange = e.gauge(telemetry.GaugeCQ, fmt.Sprintf("cq/core%d", coreID))
	q.ready.OnChange = e.gauge(telemetry.GaugeRunnable, fmt.Sprintf("runnable/core%d", coreID))
	for _, th := range threads {
		q.states[th] = &swqThreadState{}
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

// submit writes one read descriptor per address of th's batch, charging
// the marginal per-descriptor queue-management cost on the core (§V-C:
// overhead grows with the number of accesses "even when the accesses
// are batched"). The caller charges the batch's fixed cost.
func (q *descQueue) submit(p *sim.Proc, th *uthread.Thread, addrs []uint64) {
	e := q.e
	st := q.states[th]
	st.data = resize(st.data, len(addrs))
	st.remaining = len(addrs)
	for i, addr := range addrs {
		// The ledger opens before the per-descriptor cost, the span
		// after it.
		obs := observe.Access{Ledger: e.at.Open(p.Now())}
		p.Sleep(e.cfg.SWQPerAccessOverhead)
		e.issued(p.Now(), obs)
		obs.Span = e.beginSpan(q.coreID, addr, p.Now())
		target := responseTarget(q.coreID, th.ID(), i)
		id := q.rq.Push(addr, target, p.Now(), obs)
		w := q.newWait()
		w.th, w.slot, w.submitted = th, i, p.Now()
		w.addr, w.target = addr, target
		w.deadline = p.Now() + e.cfg.RetryTimeout(0)
		w.obs = obs
		q.waiting[id] = w
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

// doorbell rings the MMIO doorbell, waking the device's request fetcher.
func (q *descQueue) doorbell(p *sim.Proc) {
	p.Sleep(q.e.cfg.DoorbellMMIO)
	q.rq.ClearDoorbellRequested()
	q.ep.Doorbell()
}

// deliver matches drained completions to their outstanding descriptors
// and lands each one's data in its thread's batch. Completions of
// unknown IDs — fire-and-forget writes, and stragglers of resubmitted
// descriptors — are dropped. mark charges the mechanism's attribution
// for the time since the device posted the completion; the ledger then
// parks on the thread state until the scheduler resumes the thread.
func (q *descQueue) deliver(p *sim.Proc, compls []hostmem.Completion, mark func(aw *attrib.Access)) {
	for _, compl := range compls {
		w, ok := q.waiting[compl.ID]
		if !ok {
			continue
		}
		delete(q.waiting, compl.ID)
		// Windowed at the drain time (monotone); the latency itself
		// still ends at the device's post time.
		q.e.rec.Finished(p.Now())
		q.e.delivered(p.Now(), compl.Posted-w.submitted)
		w.obs.Span.End(compl.Posted)
		mark(w.obs.Ledger)
		st := q.states[w.th]
		if w.obs.Ledger != nil && st.atr == nil {
			st.atr = make([]*attrib.Access, len(st.data))
		}
		if st.atr != nil {
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
	st := q.states[th]
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
