package core

import (
	"repro/internal/attrib"
	"repro/internal/hostmem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/uthread"
)

// runKernelQCore executes one core under kernel-managed software queues
// — "the age-old approach to device access" (§III-A). The paper
// dismisses it analytically ("these overheads dwarf the access latency,
// making kernel-managed queues ineffective") and omits it from its
// evaluation; this model quantifies the dismissal.
//
// Per access, the application performs a system call; the kernel writes
// the descriptor, rings the doorbell (there is no doorbell-request-flag
// optimization in this interface), de-schedules the thread with a
// kernel-mode context switch, and on the device's completion interrupt
// pays the interrupt cost plus another kernel switch before the thread
// returns from its syscall.
func runKernelQCore(e *Env, coreID int, threads []*uthread.Thread) *sched {
	c := &kernelQCore{e: e, coreID: coreID, threads: threads}
	c.resumeFn = c.resume
	return &c.sched
}

// kernelQCore is one core's kernel-queue scheduler, run as an engine
// continuation: each state below follows one of the core's simulated
// waits.
type kernelQCore struct {
	sched
	e       *Env
	coreID  int
	threads []*uthread.Thread
	state   kernelQState

	q      *descQueue
	live   int                  // threads not yet done
	th     *uthread.Thread      // the thread running now
	req    uthread.Request      // th's current request
	compls []hostmem.Completion // completions awaiting the interrupt handler
	mark   sim.Time             // interrupt or resume start, for attribution
}

type kernelQState uint8

const (
	kqStart       kernelQState = iota // build the queues
	kqNext                            // run the next ready thread, or idle
	kqWaiting                         // in the descQueue's park-or-recover wait
	kqInterrupted                     // the completion interrupt is handled
	kqSwitched                        // the kernel switch back to th is paid
	kqReturned                        // th's syscall has returned
	kqRun                             // act on th's request
	kqWorked                          // th's work block has retired
	kqSubmit                          // the syscall entry is paid
	kqSubmitting                      // in the descQueue's submission
	kqRing                            // ringing the doorbell
	kqDescheduled                     // the kernel switch away from th is paid
)

// resume runs the scheduler until it must wait or the core finishes.
func (c *kernelQCore) resume() {
	e := c.e
	for {
		switch c.state {
		case kqStart:
			c.q = newDescQueue(e, c.coreID, c.threads, c.resumeFn)
			c.live = len(c.threads)
			c.state = kqNext

		case kqNext:
			if c.live == 0 {
				e.c.coreFinished(e.eng.Now())
				c.q.stop()
				c.done = true
				return
			}
			c.th = c.q.ready.Pop()
			if c.th == nil {
				// The OS idles (or runs unrelated processes) until the
				// device raises a completion interrupt.
				gate := c.q.ep.CompletionGate()
				compls := c.q.cq.Drain()
				if len(compls) == 0 {
					// Recovery backstop: the kernel arms a timer at the
					// earliest descriptor deadline in case the
					// completion interrupt never comes.
					c.q.startWait(gate)
					c.state = kqWaiting
					continue
				}
				// Interrupt delivery + handler, then wake the syscall
				// waiters; completions present in the queue coalesce
				// into one interrupt.
				c.compls, c.mark = compls, e.eng.Now()
				c.state = kqInterrupted
				if e.eng.Delay(e.cfg.InterruptCost, c.resumeFn) {
					return
				}
				continue
			}
			st := &c.q.states[c.th.ID()]
			if !st.started {
				st.started = true
				c.req = c.th.Start()
				c.state = kqRun
				continue
			}
			// The thread was de-scheduled inside its syscall; resuming
			// always pays a kernel-mode context switch (even a sole
			// thread was switched away from), then the syscall returns.
			c.mark = e.eng.Now()
			c.state = kqSwitched
			if e.eng.Delay(e.cfg.KernelCtxSwitch, c.resumeFn) {
				return
			}

		case kqWaiting:
			if c.q.run() {
				return
			}
			c.state = kqNext

		case kqInterrupted:
			// Time until the interrupt fired is completion wait; the
			// interrupt delivery + handler is switch overhead.
			c.q.deliver(c.compls, c.mark)
			c.compls = nil
			c.state = kqNext

		case kqSwitched:
			e.switched(e.eng.Now())
			c.state = kqReturned
			if e.eng.Delay(e.cfg.SyscallCost, c.resumeFn) {
				return
			}

		case kqReturned:
			// Ready-queue time is completion wait; the kernel switch
			// plus syscall return is switch overhead, closing the
			// batch's ledgers at the moment the thread gets its data.
			st := &c.q.states[c.th.ID()]
			for _, aw := range st.atr {
				aw.To(attrib.PhaseComplWait, c.mark)
				aw.Close(attrib.PhaseSwitch, e.eng.Now())
			}
			clear(st.atr)
			c.req = c.th.Resume(st.payload)
			st.payload = nil
			c.state = kqRun

		case kqRun:
			switch c.req.Kind {
			case uthread.KindWork:
				c.state = kqWorked
				if e.eng.Delay(e.work.Time(&e.cfg, c.req.Instr), c.resumeFn) {
					return
				}
			case uthread.KindAccess:
				// Syscall entry, kernel queueing, unconditional doorbell,
				// then the kernel de-schedules the thread.
				c.state = kqSubmit
				if e.eng.Delay(e.cfg.SyscallCost, c.resumeFn) {
					return
				}
			case uthread.KindDone:
				c.live--
				c.state = kqNext
			default:
				c.state = kqNext
			}

		case kqWorked:
			e.c.workInstr += int64(c.req.Instr)
			c.req = c.th.Resume(nil)
			c.state = kqRun

		case kqSubmit:
			c.q.startSubmit(c.th, c.req.Addrs)
			c.state = kqSubmitting

		case kqSubmitting:
			if c.q.run() {
				return
			}
			c.q.startDoorbell()
			c.state = kqRing

		case kqRing:
			if c.q.run() {
				return
			}
			c.state = kqDescheduled
			if e.eng.Delay(e.cfg.KernelCtxSwitch, c.resumeFn) {
				return
			}

		case kqDescheduled:
			c.state = kqNext
		}
	}
}

// RunKernelQueue measures the kernel-managed software-queue interface —
// the baseline the paper rules out in §III-A. Included to quantify that
// dismissal: per-access syscalls, kernel context switches, and
// completion interrupts dwarf a microsecond access. useReplay is as for
// RunPrefetch.
func RunKernelQueue(cfg platform.Config, w Workload, threadsPerCore int, useReplay bool) (Result, error) {
	return runThreaded(cfg, w, "kernelq", threadsPerCore, useReplay, runKernelQCore)
}

// RunSMT measures simultaneous multithreading as a latency-hiding aid
// for on-demand accesses (§III-B): the core's hardware contexts each
// run the demand-access loop, and the core switches contexts for free
// when one blocks on a device load. The paper's point stands in the
// numbers: with commodity SMT widths (2), the benefit is a small factor
// — nowhere near the 10+ concurrent accesses a microsecond needs.
//
// The model reuses the threaded executor with a zero-cost switch and
// zero-cost request issue: a blocked context's load occupies an LFB and
// a chip-queue slot exactly as a prefetch would, but only SMTContexts
// accesses can ever be outstanding.
func RunSMT(cfg platform.Config, w Workload) (Result, error) {
	smt := cfg
	smt.CtxSwitch = 0
	smt.PrefetchIssue = 0
	return runThreaded(smt, w, "smt", cfg.SMTContexts, false, runPrefetchCore)
}
