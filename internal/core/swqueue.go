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
func runSWQCore(e *Env, coreID int, threads []*uthread.Thread) *sched {
	c := &swqCore{e: e, coreID: coreID, threads: threads}
	c.resumeFn = c.resume
	return &c.sched
}

// swqCore is one core's software-queue scheduler, run as an engine
// continuation: each state below follows one of the core's simulated
// waits.
type swqCore struct {
	sched
	e       *Env
	coreID  int
	threads []*uthread.Thread
	state   swqState

	q       *descQueue
	live    int             // threads not yet done
	cur, th *uthread.Thread // the thread that last ran, and the one running now
	req     uthread.Request // th's current request
	i       int             // next write of req.Addrs
	gate    *sim.Gate       // the completion gate taken before a poll

	switchStart, switchEnd sim.Time // see prefetchCore
}

type swqState uint8

const (
	swqStart      swqState = iota // build the queues
	swqNext                       // run the next ready thread, or poll
	swqPolled                     // the completion-queue poll is paid
	swqWaiting                    // in the descQueue's park-or-recover wait
	swqSwitched                   // the context switch is paid
	swqResume                     // start or resume th
	swqRun                        // act on th's request
	swqWorked                     // th's work block has retired
	swqWrite                      // write descriptor c.i
	swqWritten                    // write descriptor c.i's cost is paid
	swqWriteRing                  // ringing the doorbell after the writes
	swqSubmit                     // the batch's fixed cost is paid
	swqSubmitting                 // in the descQueue's submission
	swqRing                       // ringing the doorbell after the batch
)

// resume runs the scheduler until it must wait or the core finishes.
func (c *swqCore) resume() {
	e := c.e
	for {
		switch c.state {
		case swqStart:
			c.q = newDescQueue(e, c.coreID, c.threads, c.resumeFn)
			c.live = len(c.threads)
			c.state = swqNext

		case swqNext:
			if c.live == 0 {
				e.c.coreFinished(e.eng.Now())
				c.q.stop()
				c.done = true
				return
			}
			c.th = c.q.ready.Pop()
			if c.th == nil {
				// No ready threads: poll the completion queue. The gate
				// is taken before draining so a completion that lands
				// between the drain and the wait still wakes the
				// scheduler.
				c.gate = c.q.ep.CompletionGate()
				c.state = swqPolled
				if e.eng.Delay(e.cfg.CompletionPoll, c.resumeFn) {
					return
				}
				continue
			}
			switched := c.cur != nil && c.th != c.cur
			c.cur = c.th
			c.switchStart, c.switchEnd = 0, 0
			c.state = swqResume
			if switched {
				c.switchStart = e.eng.Now()
				c.state = swqSwitched
				if e.eng.Delay(e.cfg.CtxSwitch, c.resumeFn) {
					return
				}
			}

		case swqPolled:
			gate := c.gate
			c.gate = nil
			if compls := c.q.cq.Drain(); len(compls) > 0 {
				// The poll found the completions now; everything since
				// the device posted them is completion wait.
				c.q.deliver(compls, e.eng.Now())
				c.state = swqNext
				continue
			}
			c.q.startWait(gate)
			c.state = swqWaiting

		case swqWaiting:
			if c.q.run() {
				return
			}
			c.state = swqNext

		case swqSwitched:
			c.switchEnd = e.eng.Now()
			e.switched(e.eng.Now())
			c.state = swqResume

		case swqResume:
			st := &c.q.states[c.th.ID()]
			if st.started {
				// Close the batch's ledgers at delivery: ready-queue time
				// is completion wait, the switch interval (when one
				// happened) is switch overhead, and the residual until
				// the thread actually consumes the data is completion
				// wait again.
				for _, aw := range st.atr {
					aw.To(attrib.PhaseComplWait, c.switchStart)
					aw.To(attrib.PhaseSwitch, c.switchEnd)
					aw.Close(attrib.PhaseComplWait, e.eng.Now())
				}
				clear(st.atr)
				c.req = c.th.Resume(st.payload)
				st.payload = nil
			} else {
				st.started = true
				c.req = c.th.Start()
			}
			c.state = swqRun

		case swqRun:
			switch c.req.Kind {
			case uthread.KindWork:
				c.state = swqWorked
				if e.eng.Delay(e.work.Time(&e.cfg, c.req.Instr), c.resumeFn) {
					return
				}
			case uthread.KindWrite:
				// Fire-and-forget write descriptors: queue-management
				// cost is paid, but the thread does not wait (§VII).
				c.i = 0
				c.state = swqWrite
			case uthread.KindAccess:
				// Submit the batch: fixed queue-management cost plus the
				// per-descriptor cost. Ring the doorbell only if the
				// device asked for it (or on every submission, in the
				// ablated flagless variant).
				c.state = swqSubmit
				if e.eng.Delay(e.cfg.SWQBatchOverhead, c.resumeFn) {
					return
				}
			default:
				c.live--
				c.state = swqNext
			}

		case swqWorked:
			e.c.workInstr += int64(c.req.Instr)
			c.req = c.th.Resume(nil)
			c.state = swqRun

		case swqWrite:
			if c.i < len(c.req.Addrs) {
				c.state = swqWritten
				if e.eng.Delay(e.cfg.SWQPerAccessOverhead, c.resumeFn) {
					return
				}
				continue
			}
			c.state = swqRun
			if c.ringRequested() {
				c.q.startDoorbell()
				c.state = swqWriteRing
				continue
			}
			c.req = c.th.Resume(nil)

		case swqWritten:
			e.c.writes++
			c.q.rq.PushWrite(c.req.Addrs[c.i], responseTarget(c.coreID, c.th.ID(), 0), e.eng.Now())
			c.i++
			c.state = swqWrite

		case swqWriteRing:
			if c.q.run() {
				return
			}
			c.req = c.th.Resume(nil)
			c.state = swqRun

		case swqSubmit:
			c.q.startSubmit(c.th, c.req.Addrs)
			c.state = swqSubmitting

		case swqSubmitting:
			if c.q.run() {
				return
			}
			c.state = swqNext
			if c.ringRequested() {
				c.q.startDoorbell()
				c.state = swqRing
			}

		case swqRing:
			if c.q.run() {
				return
			}
			c.state = swqNext
		}
	}
}

// ringRequested reports whether a submission must ring the doorbell:
// the device asked for it, or the ablated flagless variant rings on
// every submission.
func (c *swqCore) ringRequested() bool {
	return c.q.rq.DoorbellRequested() || c.e.cfg.SWQAlwaysDoorbell
}
