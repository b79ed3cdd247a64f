package core

import (
	"fmt"

	"repro/internal/attrib"
	"repro/internal/cache"
	"repro/internal/observe"
	"repro/internal/platform"
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
func runPrefetchCore(p *sim.Proc, e *Env, coreID int, threads []*uthread.Thread) {
	initial := make(map[*uthread.Thread]uthread.Request, len(threads))
	pending := make(map[*uthread.Thread]*pendingAccess, len(threads))
	for _, th := range threads {
		initial[th] = th.Start()
		pending[th] = &pendingAccess{}
	}
	rr := uthread.NewRoundRobin(threads)
	var cur *uthread.Thread

	// The round-robin set has no change hook; the scheduler samples its
	// gauge by hand (nil when no layer observes it).
	live := e.gauge(telemetry.GaugeRunnable, fmt.Sprintf("runnable/core%d", coreID))
	if live != nil {
		live(rr.Live())
	}

	for {
		th := rr.Next()
		if th == nil {
			break
		}
		// The switch interval is captured so delivery below can attribute
		// it per line; when no switch happens both stamps stay zero and
		// the attribution marks clamp to nothing.
		var switchStart, switchEnd sim.Time
		if cur != nil && th != cur {
			switchStart = p.Now()
			p.Sleep(e.cfg.CtxSwitch)
			switchEnd = p.Now()
			e.switched(p.Now())
		}
		cur = th

		// Obtain the thread's next request: deliver prefetched data
		// (waiting on any line still in flight), or pick up the request
		// captured at Start.
		var req uthread.Request
		if pa := pending[th]; len(pa.lines) > 0 {
			for _, l := range pa.lines {
				if l != nil {
					p.Wait(&l.g) // demand load; no cost if the line already filled
				}
			}
			e.delivered(p.Now(), p.Now()-pa.issued)
			// Close each line's ledger at consumption. The unconditional
			// marks rely on the clamp: a line that landed before the
			// switch charges it to the switch phase, a line that was
			// still in flight keeps everything in completion wait.
			for i, l := range pa.lines {
				if l == nil {
					continue // cache hit: its data was filled at issue
				}
				l.obs.Ledger.To(attrib.PhaseComplWait, switchStart)
				l.obs.Ledger.To(attrib.PhaseSwitch, switchEnd)
				l.obs.Ledger.Close(attrib.PhaseComplWait, p.Now())
				pa.data[i] = l.data
				e.consumed(l)
			}
			clear(pa.lines)
			pa.lines = pa.lines[:0]
			req = th.Resume(pa.data)
		} else {
			req = initial[th]
			delete(initial, th)
		}

		// Work and posted writes do not yield; run the thread until it
		// reads or ends.
	inner:
		for {
			switch req.Kind {
			case uthread.KindWork:
				p.Sleep(e.cfg.WorkTime(req.Instr))
				e.c.workInstr += int64(req.Instr)
				req = th.Resume(nil)
			case uthread.KindWrite:
				// Posted stores: each takes a store-buffer entry (a
				// full buffer stalls the core) and drains to the device
				// asynchronously; the thread continues immediately.
				// Coherence invalidates the line in every core's cache
				// (§V-C).
				for _, addr := range req.Addrs {
					p.AcquireToken(e.storeBuf[coreID])
					p.Sleep(e.cfg.WriteIssue)
					e.c.writes++
					e.invalidateAll(addr)
					sb := e.storeBuf[coreID]
					e.dev.MMIOWrite(coreID, addr, sb.Release)
				}
				req = th.Resume(nil)
			default:
				break inner
			}
		}

		if req.Kind == uthread.KindAccess {
			pa := pending[th]
			pa.issued = p.Now()
			pa.data = resize(pa.data, len(req.Addrs))
			for i, addr := range req.Addrs {
				// A cache hit satisfies the prefetch on-chip: no LFB
				// entry, no device access (§III-B, cacheable MMIO).
				if cc := e.caches[coreID]; cc != nil {
					if data, ok := cc.Lookup(addr); ok {
						pa.data[i] = data
						pa.lines = append(pa.lines, nil)
						continue
					}
				}

				// The access span opens at prefetch issue, before any
				// queue wait, so LFB stalls are visible in its shape.
				l := e.newLine(coreID, addr)
				l.obs = observe.Access{Span: e.beginSpan(coreID, addr, p.Now()), Ledger: e.at.Open(p.Now())}
				l.chip, l.lfb, l.cache = e.chip, e.lfb[coreID], e.caches[coreID]
				l.retry = e.faults != nil
				pa.lines = append(pa.lines, l)

				// prefetcht0: allocate an LFB entry; a full pool stalls
				// the core until an entry frees — the 10-entry limit of
				// §V-B.
				p.AcquireToken(l.lfb)
				l.obs.Mark(p.Now(), "lfb-acquired", attrib.PhaseQueueWait)
				p.Sleep(e.cfg.PrefetchIssue)
				e.issued(p.Now(), l.obs)

				// The request proceeds to the device once a slot in the
				// chip-level shared queue frees; the wait happens in the
				// hardware queues, not on the core.
				e.chip.OnAcquire(l.acquiredFn)
			}
			// userctx_yield(): fall through to the scheduler.
		} else if live != nil {
			// The thread just finished; record the shrunk runnable set.
			live(rr.Live())
		}
	}
	e.c.coreFinished(p.Now())
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
// as nil: the thread gets a zero-filled line that is never cached.
func (l *lineRead) land(data []byte) {
	if l.g.Fired() {
		return
	}
	e := l.e
	l.obs.Ledger.To(attrib.PhaseTransit, e.eng.Now())
	if data == nil {
		data = make([]byte, platform.CacheLineBytes)
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
