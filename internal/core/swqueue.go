package core

import (
	"repro/internal/attrib"
	"repro/internal/sim"
	"repro/internal/uthread"
)

// runSWQCore executes one core under the application-managed
// software-queue mechanism (§III-A as refined in §IV): threads submit
// descriptors to the in-memory request queue (ringing the MMIO doorbell
// only when the doorbell-request flag is set), and a FIFO user-level
// scheduler runs ready threads, polling the completion queue "only when
// no threads remain in the ready state" (§IV-B).
func runSWQCore(p *sim.Proc, e *Env, coreID int, threads []*uthread.Thread) {
	q := newDescQueue(e, coreID, threads)
	defer q.stop()
	live := len(threads)
	var cur *uthread.Thread

	for live > 0 {
		th := q.ready.Pop()
		if th == nil {
			// No ready threads: poll the completion queue. The gate is
			// taken before draining so a completion that lands between
			// the drain and the wait still wakes the scheduler.
			gate := q.ep.CompletionGate()
			p.Sleep(e.cfg.CompletionPoll)
			compls := q.cq.Drain()
			if len(compls) == 0 {
				q.waitOrRecover(p, gate)
				continue
			}
			// The poll found the completions now; everything since the
			// device posted them is completion wait.
			q.deliver(p, compls, func(aw *attrib.Access) {
				aw.To(attrib.PhaseComplWait, p.Now())
			})
			continue
		}

		var switchStart, switchEnd sim.Time
		if cur != nil && th != cur {
			switchStart = p.Now()
			p.Sleep(e.cfg.CtxSwitch)
			switchEnd = p.Now()
			e.switched(p.Now())
		}
		cur = th

		st := q.states[th]
		var req uthread.Request
		if st.started {
			// Close the batch's ledgers at delivery: ready-queue time is
			// completion wait, the switch interval (when one happened) is
			// switch overhead, and the residual until the thread actually
			// consumes the data is completion wait again.
			for _, aw := range st.atr {
				aw.To(attrib.PhaseComplWait, switchStart)
				aw.To(attrib.PhaseSwitch, switchEnd)
				aw.Close(attrib.PhaseComplWait, p.Now())
			}
			st.atr = nil
			req = th.Resume(st.payload)
			st.payload = nil
		} else {
			st.started = true
			req = th.Start()
		}

	inner:
		for {
			switch req.Kind {
			case uthread.KindWork:
				p.Sleep(e.cfg.WorkTime(req.Instr))
				e.c.workInstr += int64(req.Instr)
				req = th.Resume(nil)
			case uthread.KindWrite:
				// Fire-and-forget write descriptors: queue-management
				// cost is paid, but the thread does not wait (§VII).
				for _, addr := range req.Addrs {
					p.Sleep(e.cfg.SWQPerAccessOverhead)
					e.c.writes++
					q.rq.PushWrite(addr, responseTarget(coreID, th.ID(), 0), p.Now())
				}
				if q.rq.DoorbellRequested() || e.cfg.SWQAlwaysDoorbell {
					q.doorbell(p)
				}
				req = th.Resume(nil)
			default:
				break inner
			}
		}

		switch req.Kind {
		case uthread.KindAccess:
			// Submit the batch: fixed queue-management cost plus the
			// per-descriptor cost. Ring the doorbell only if the device
			// asked for it (or on every submission, in the ablated
			// flagless variant).
			p.Sleep(e.cfg.SWQBatchOverhead)
			q.submit(p, th, req.Addrs)
			if q.rq.DoorbellRequested() || e.cfg.SWQAlwaysDoorbell {
				q.doorbell(p)
			}
		case uthread.KindDone:
			live--
		}
	}
	e.c.coreFinished(p.Now())
}
