package core

import (
	"fmt"

	"repro/internal/attrib"
	"repro/internal/cache"
	"repro/internal/observe"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/uthread"
)

// pendingAccess is one thread's prefetch state: its outstanding batch
// of line reads (nil entries are cache hits) and the slice its data is
// delivered in. The slice is reused for the thread's every batch; a
// workload body drops it by its next access.
type pendingAccess struct {
	lines  []*lineRead
	data   [][]byte
	issued sim.Time
}

// runPrefetchCore executes one core under the prefetch mechanism
// (Listing 1): for every device access the thread issues a non-binding
// prefetch per line — allocating an LFB entry, and a chip-level queue
// slot on the way to the PCIe controller — then performs a user-level
// context switch. The round-robin scheduler later resumes the thread,
// whose demand load either hits in the L1 (the fill arrived) or blocks
// the core until the in-flight miss completes (MSHR merge).
func runPrefetchCore(e *Env, coreID int, threads []*uthread.Thread) *sched {
	c := &prefetchCore{e: e, coreID: coreID, threads: threads}
	c.resumeFn = c.resume
	return &c.sched
}

// prefetchCore is one core's prefetch scheduler, run as an engine
// continuation: each state below follows one of the core's simulated
// waits.
type prefetchCore struct {
	sched
	e       *Env
	coreID  int
	threads []*uthread.Thread
	state   prefetchState

	rr      *uthread.RoundRobin
	live    func(int)         // runnable-set gauge; nil when unobserved
	initial []uthread.Request // each thread's first request, by thread ID (launch numbers a core's threads from 0)
	pending []pendingAccess   // each thread's outstanding batch, by thread ID

	cur, th *uthread.Thread // the thread that last ran, and the one running now
	req     uthread.Request // th's current request
	i       int             // next line of req.Addrs (or of th's pending batch)
	line    *lineRead       // the line being issued

	// The switch interval is captured so delivery can attribute it per
	// line; when no switch happens both stamps stay zero and the
	// attribution marks clamp to nothing.
	switchStart, switchEnd sim.Time
}

type prefetchState uint8

const (
	pfStart      prefetchState = iota // build the thread set
	pfNext                            // pick the next thread, switching to it if it is another
	pfSwitched                        // the context switch is paid
	pfDeliver                         // demand-load th's batch, line c.i onwards
	pfRun                             // act on th's request
	pfWorked                          // th's work block has retired
	pfWrite                           // take a store-buffer entry for write c.i
	pfWriteTaken                      // write c.i holds its entry
	pfWritten                         // write c.i is issued
	pfIssue                           // prefetch line c.i
	pfLFBTaken                        // c.line holds its LFB entry
	pfPrefetched                      // c.line's prefetch is issued
)

// resume runs the scheduler until it must wait or the core finishes.
func (c *prefetchCore) resume() {
	e := c.e
	for {
		switch c.state {
		case pfStart:
			c.initial = make([]uthread.Request, len(c.threads))
			c.pending = make([]pendingAccess, len(c.threads))
			for _, th := range c.threads {
				c.initial[th.ID()] = th.Start()
			}
			c.rr = uthread.NewRoundRobin(c.threads)
			// The round-robin set has no change hook; the scheduler
			// samples its gauge by hand.
			c.live = e.gauge(telemetry.GaugeRunnable, fmt.Sprintf("runnable/core%d", c.coreID))
			if c.live != nil {
				c.live(c.rr.Live())
			}
			c.state = pfNext

		case pfNext:
			th := c.rr.Next()
			if th == nil {
				e.c.coreFinished(e.eng.Now())
				c.done = true
				return
			}
			switched := c.cur != nil && th != c.cur
			c.cur, c.th = th, th
			c.switchStart, c.switchEnd = 0, 0
			c.i = 0
			c.state = pfDeliver
			if switched {
				c.switchStart = e.eng.Now()
				c.state = pfSwitched
				if e.eng.Delay(e.cfg.CtxSwitch, c.resumeFn) {
					return
				}
			}

		case pfSwitched:
			c.switchEnd = e.eng.Now()
			e.switched(e.eng.Now())
			c.state = pfDeliver

		case pfDeliver:
			// Deliver prefetched data, waiting on any line still in
			// flight (a demand load; no cost if the line already
			// filled), or pick up the request captured at Start.
			pa := &c.pending[c.th.ID()]
			if len(pa.lines) == 0 {
				c.req = c.initial[c.th.ID()]
				c.state = pfRun
				continue
			}
			for c.i < len(pa.lines) {
				l := pa.lines[c.i]
				c.i++
				if l != nil && l.g.Await(c.resumeFn) {
					return
				}
			}
			e.delivered(e.eng.Now(), e.eng.Now()-pa.issued)
			// Close each line's ledger at consumption. The unconditional
			// marks rely on the clamp: a line that landed before the
			// switch charges it to the switch phase, a line that was
			// still in flight keeps everything in completion wait.
			for i, l := range pa.lines {
				if l == nil {
					continue // cache hit: its data was filled at issue
				}
				l.obs.Ledger.To(attrib.PhaseComplWait, c.switchStart)
				l.obs.Ledger.To(attrib.PhaseSwitch, c.switchEnd)
				l.obs.Ledger.Close(attrib.PhaseComplWait, e.eng.Now())
				pa.data[i] = l.data
				e.consumed(l)
			}
			clear(pa.lines)
			pa.lines = pa.lines[:0]
			c.req = c.th.Resume(pa.data)
			c.state = pfRun

		case pfRun:
			// Work and posted writes do not yield; run the thread until
			// it reads or ends.
			switch c.req.Kind {
			case uthread.KindWork:
				c.state = pfWorked
				if e.eng.Delay(e.work.Time(&e.cfg, c.req.Instr), c.resumeFn) {
					return
				}
			case uthread.KindWrite:
				c.i = 0
				c.state = pfWrite
			case uthread.KindAccess:
				pa := &c.pending[c.th.ID()]
				pa.issued = e.eng.Now()
				pa.data = resize(pa.data, len(c.req.Addrs))
				c.i = 0
				c.state = pfIssue
			default:
				// The thread just finished; record the shrunk runnable
				// set.
				if c.live != nil {
					c.live(c.rr.Live())
				}
				c.state = pfNext
			}

		case pfWorked:
			e.c.workInstr += int64(c.req.Instr)
			c.req = c.th.Resume(nil)
			c.state = pfRun

		case pfWrite:
			// Posted stores: each takes a store-buffer entry (a full
			// buffer stalls the core) and drains to the device
			// asynchronously; the thread continues immediately.
			if c.i == len(c.req.Addrs) {
				c.req = c.th.Resume(nil)
				c.state = pfRun
				continue
			}
			c.state = pfWriteTaken
			if e.storeBuf[c.coreID].Acquire(c.resumeFn) {
				return
			}

		case pfWriteTaken:
			c.state = pfWritten
			if e.eng.Delay(e.cfg.WriteIssue, c.resumeFn) {
				return
			}

		case pfWritten:
			// Coherence invalidates the line in every core's cache
			// (§V-C).
			addr := c.req.Addrs[c.i]
			e.c.writes++
			e.invalidateAll(addr)
			e.dev.MMIOWrite(c.coreID, addr, e.storeBuf[c.coreID].Release)
			c.i++
			c.state = pfWrite

		case pfIssue:
			if c.i == len(c.req.Addrs) {
				// userctx_yield(): back to the scheduler.
				c.state = pfNext
				continue
			}
			pa := &c.pending[c.th.ID()]
			addr := c.req.Addrs[c.i]
			// A cache hit satisfies the prefetch on-chip: no LFB entry,
			// no device access (§III-B, cacheable MMIO).
			if cc := e.caches[c.coreID]; cc != nil {
				if data, ok := cc.Lookup(addr); ok {
					pa.data[c.i] = data
					pa.lines = append(pa.lines, nil)
					c.i++
					continue
				}
			}
			// The access span opens at prefetch issue, before any queue
			// wait, so LFB stalls are visible in its shape.
			l := e.newLine(c.coreID, addr)
			l.obs = observe.Access{Span: e.beginSpan(c.coreID, addr, e.eng.Now()), Ledger: e.at.Open(e.eng.Now())}
			l.chip, l.lfb, l.cache = e.chip, e.lfb[c.coreID], e.caches[c.coreID]
			l.retry = e.faults != nil
			pa.lines = append(pa.lines, l)
			c.line = l
			// prefetcht0: allocate an LFB entry; a full pool stalls the
			// core until an entry frees — the 10-entry limit of §V-B.
			c.state = pfLFBTaken
			if l.lfb.Acquire(c.resumeFn) {
				return
			}

		case pfLFBTaken:
			c.line.obs.Mark(e.eng.Now(), "lfb-acquired", attrib.PhaseQueueWait)
			c.state = pfPrefetched
			if e.eng.Delay(e.cfg.PrefetchIssue, c.resumeFn) {
				return
			}

		case pfPrefetched:
			l := c.line
			c.line = nil
			e.issued(e.eng.Now(), l.obs)
			// The request proceeds to the device once a slot in the
			// chip-level shared queue frees; the wait happens in the
			// hardware queues, not on the core.
			e.chip.OnAcquire(l.acquiredFn)
			c.i++
			c.state = pfIssue
		}
	}
}

// resize returns s with length n, reusing its backing array when it
// is large enough.
func resize(s [][]byte, n int) [][]byte {
	if cap(s) < n {
		return make([][]byte, n)
	}
	return s[:n]
}

// lineRead is one prefetched (or demand-loaded) line's device read: the
// hardware queue entries it holds from issue to landing, its
// observers, and the gate its consumer waits on. The closed-loop
// prefetch executor and core.Server's workers both issue it. Its
// callbacks are bound once, when the record is first built, and it is
// recycled through the Env's free list when its consumer takes the
// data (see Env.consumed).
type lineRead struct {
	e      *Env
	coreID int
	addr   uint64
	obs    observe.Access

	chip  *sim.TokenPool // chip-level queue slot, held until landing; nil if the read bypasses it
	lfb   *sim.TokenPool // LFB entry, likewise; nil for demand loads
	cache *cache.Cache   // landed lines are inserted here; nil for none
	retry bool           // arm timeout recovery (fault-injected closed-loop runs)

	attempt int // retries so far
	g       sim.Gate
	data    []byte

	acquiredFn func()
	landFn     func(data []byte)
	timeoutFn  func()
}

// newLine takes a line record off the free list (or builds one) and
// readies it for a read of addr on core coreID.
func (e *Env) newLine(coreID int, addr uint64) *lineRead {
	var l *lineRead
	if n := len(e.lineFree); n > 0 {
		l = e.lineFree[n-1]
		e.lineFree = e.lineFree[:n-1]
	} else {
		l = &lineRead{e: e}
		l.acquiredFn = l.acquired
		l.landFn = l.land
		l.timeoutFn = l.timeout
	}
	l.coreID, l.addr = coreID, addr
	l.g.Init(e.eng)
	return l
}

// consumed recycles a line whose consumer has taken its data. Without
// fault injection the landing was the read's last callback, so the
// record is unreferenced. Under fault injection a dropped response
// never calls back, while a duplicated or straggling one can arrive
// after consumption, so those records are left to the garbage
// collector instead.
func (e *Env) consumed(l *lineRead) {
	if e.faults != nil {
		return
	}
	*l = lineRead{e: e, acquiredFn: l.acquiredFn, landFn: l.landFn, timeoutFn: l.timeoutFn}
	e.lineFree = append(e.lineFree, l)
}

// acquired runs once the line holds a chip-level queue slot.
func (l *lineRead) acquired() {
	l.obs.Mark(l.e.eng.Now(), "chipq-acquired", attrib.PhaseQueueWait)
	l.read()
}

// read issues the line's device read and, under fault injection, arms
// the attempt's retry timeout.
func (l *lineRead) read() {
	e := l.e
	e.dev.MMIORead(l.coreID, l.addr, l.obs, l.landFn)
	if l.retry {
		e.eng.After(e.cfg.RetryTimeout(l.attempt), l.timeoutFn)
	}
}

// land is the line's one completion path. Under fault injection a
// duplicated or straggling response can race a retry's response or an
// abandon; the gate is the deliver-once guard. An abandoned line lands
// as nil: the thread gets the shared zero line, which is never cached.
// A line is delivered as the device served it (a read-only view) and
// never written.
func (l *lineRead) land(data []byte) {
	if l.g.Fired() {
		return
	}
	e := l.e
	l.obs.Ledger.To(attrib.PhaseTransit, e.eng.Now())
	if data == nil {
		data = replay.ZeroLine()
	} else if l.cache != nil {
		l.cache.Insert(l.addr, data)
	}
	l.data = data
	if l.chip != nil {
		l.chip.Release()
	}
	if l.lfb != nil {
		l.lfb.Release()
	}
	l.g.Fire()
	e.rec.Finished(e.eng.Now())
	l.obs.Span.End(e.eng.Now())
}

// timeout is attempt l.attempt's retry timeout. If the line has not
// landed, the host re-issues the read (the LFB entry and chip-queue
// slot stay allocated across retries), backing off until the retry
// budget runs out, then abandons the line.
func (l *lineRead) timeout() {
	if l.g.Fired() {
		return
	}
	e := l.e
	now := e.eng.Now()
	l.obs.Ledger.To(attrib.PhaseRetry, now)
	e.timedOut(now, l.obs)
	if l.attempt >= e.cfg.MaxRetries {
		e.abandoned(now, l.obs)
		l.land(nil)
		return
	}
	e.retried(now)
	l.obs.Span.Point(now, "retry")
	l.attempt++
	l.read()
}
