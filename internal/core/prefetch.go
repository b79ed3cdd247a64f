package core

import (
	"fmt"

	"repro/internal/attrib"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/uthread"
)

// pendingAccess tracks one thread's outstanding prefetch batch: the
// in-flight lines and the slots their data will land in. atr holds the
// per-line attribution ledgers (nil slice when attribution is off, nil
// entries for cache hits).
type pendingAccess struct {
	data   [][]byte
	gates  []*sim.Gate
	atr    []*attrib.Access
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
		if pa := pending[th]; pa != nil {
			for _, g := range pa.gates {
				if g == nil {
					continue // cache hit: nothing in flight
				}
				p.Wait(g) // demand load; no cost if the line already filled
			}
			e.delivered(p.Now(), p.Now()-pa.issued)
			// Close each line's ledger at consumption. The unconditional
			// marks rely on the clamp: a line that landed before the
			// switch charges it to the switch phase, a line that was
			// still in flight keeps everything in completion wait.
			for _, aw := range pa.atr {
				aw.To(attrib.PhaseComplWait, switchStart)
				aw.To(attrib.PhaseSwitch, switchEnd)
				aw.Close(attrib.PhaseComplWait, p.Now())
			}
			delete(pending, th)
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
			pa := &pendingAccess{
				data:   make([][]byte, len(req.Addrs)),
				gates:  make([]*sim.Gate, len(req.Addrs)),
				issued: p.Now(),
			}
			if e.at != nil {
				pa.atr = make([]*attrib.Access, len(req.Addrs))
			}
			for i, addr := range req.Addrs {
				// A cache hit satisfies the prefetch on-chip: no LFB
				// entry, no device access (§III-B, cacheable MMIO).
				if cc := e.caches[coreID]; cc != nil {
					if data, ok := cc.Lookup(addr); ok {
						pa.data[i] = data
						continue
					}
				}

				// The access span opens at prefetch issue, before any
				// queue wait, so LFB stalls are visible in its shape.
				var sp trace.Span
				if e.tr != nil {
					sp = e.trCore[coreID].BeginSpan(p.Now(), "access", trace.Hex("addr", addr))
				}
				aw := e.at.Open(p.Now())
				if pa.atr != nil {
					pa.atr[i] = aw
				}

				// prefetcht0: allocate an LFB entry; a full pool stalls
				// the core until an entry frees — the 10-entry limit of
				// §V-B.
				p.AcquireToken(e.lfb[coreID])
				sp.Point(p.Now(), "lfb-acquired")
				aw.To(attrib.PhaseQueueWait, p.Now())
				p.Sleep(e.cfg.PrefetchIssue)
				aw.To(attrib.PhaseIssue, p.Now())
				e.issued(p.Now())

				g := e.eng.NewGate()
				pa.gates[i] = g
				lfb := e.lfb[coreID]
				// land is the line's one completion path. Under fault
				// injection a duplicated or straggling response can race
				// a retry's response or an abandon; the gate is the
				// deliver-once guard. An abandoned line lands as nil: the
				// thread gets a zero-filled line that is never cached.
				land := func(data []byte) {
					if g.Fired() {
						return
					}
					aw.To(attrib.PhaseTransit, e.eng.Now())
					if data == nil {
						pa.data[i] = make([]byte, platform.CacheLineBytes)
					} else {
						pa.data[i] = data
						if cc := e.caches[coreID]; cc != nil {
							cc.Insert(addr, data)
						}
					}
					e.chip.Release()
					lfb.Release()
					g.Fire()
					e.rec.Finished(e.eng.Now())
					sp.End(e.eng.Now())
				}
				// The request proceeds to the device once a slot in the
				// chip-level shared queue frees; the wait happens in the
				// hardware queues, not on the core.
				e.chip.OnAcquire(func() {
					sp.Point(e.eng.Now(), "chipq-acquired")
					aw.To(attrib.PhaseQueueWait, e.eng.Now())
					e.dev.MMIORead(coreID, addr, sp, aw, land)
					if e.faults != nil {
						e.armLineTimeout(lineRead{coreID, addr, sp, aw, g, land}, 0)
					}
				})
			}
			pending[th] = pa
			// userctx_yield(): fall through to the scheduler.
		} else if live != nil {
			// The thread just finished; record the shrunk runnable set.
			live(rr.Live())
		}
	}
	e.c.coreFinished(p.Now())
}

// lineRead is one in-flight prefetch line's device read: what the retry
// timeout needs to re-issue it, and the gate and completion path it
// lands through.
type lineRead struct {
	coreID int
	addr   uint64
	sp     trace.Span
	aw     *attrib.Access
	g      *sim.Gate
	land   func(data []byte)
}

// armLineTimeout arms attempt n's retry timeout under fault injection.
// If the line has not landed when it expires, the host re-issues the
// read (the LFB entry and chip-queue slot stay allocated across
// retries), backing off until the retry budget runs out, then abandons
// the line.
func (e *Env) armLineTimeout(r lineRead, n int) {
	e.eng.After(e.cfg.RetryTimeout(n), func() {
		if r.g.Fired() {
			return
		}
		now := e.eng.Now()
		r.aw.To(attrib.PhaseRetry, now)
		e.timedOut(now)
		r.sp.Point(now, "timeout")
		if n >= e.cfg.MaxRetries {
			e.abandoned(now)
			r.sp.Point(now, "abandoned")
			r.land(nil)
			return
		}
		e.retried(now)
		r.sp.Point(now, "retry")
		e.dev.MMIORead(r.coreID, r.addr, r.sp, r.aw, r.land)
		e.armLineTimeout(r, n+1)
	})
}
