package core

import (
	"repro/internal/attrib"
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
func runKernelQCore(p *sim.Proc, e *Env, coreID int, threads []*uthread.Thread) {
	q := newDescQueue(e, coreID, threads)
	defer q.stop()
	live := len(threads)

	for live > 0 {
		th := q.ready.Pop()
		if th == nil {
			// The OS idles (or runs unrelated processes) until the
			// device raises a completion interrupt.
			gate := q.ep.CompletionGate()
			compls := q.cq.Drain()
			if len(compls) == 0 {
				// Recovery backstop: the kernel arms a timer at the
				// earliest descriptor deadline in case the completion
				// interrupt never comes.
				q.waitOrRecover(p, gate)
				continue
			}
			// Interrupt delivery + handler, then wake the syscall
			// waiters; completions present in the queue coalesce into
			// one interrupt. Time until the interrupt fired is
			// completion wait; the interrupt delivery + handler is
			// switch overhead.
			intStart := p.Now()
			p.Sleep(e.cfg.InterruptCost)
			q.deliver(p, compls, func(aw *attrib.Access) {
				aw.To(attrib.PhaseComplWait, intStart)
				aw.To(attrib.PhaseSwitch, p.Now())
			})
			continue
		}

		st := q.states[th]
		var req uthread.Request
		if st.started {
			// The thread was de-scheduled inside its syscall; resuming
			// always pays a kernel-mode context switch (even a sole
			// thread was switched away from), then the syscall returns.
			resumeStart := p.Now()
			p.Sleep(e.cfg.KernelCtxSwitch)
			e.switched(p.Now())
			p.Sleep(e.cfg.SyscallCost)
			// Ready-queue time is completion wait; the kernel switch
			// plus syscall return is switch overhead, closing the batch's
			// ledgers at the moment the thread gets its data.
			for _, aw := range st.atr {
				aw.To(attrib.PhaseComplWait, resumeStart)
				aw.Close(attrib.PhaseSwitch, p.Now())
			}
			st.atr = nil
			req = th.Resume(st.payload)
			st.payload = nil
		} else {
			st.started = true
			req = th.Start()
		}

		for req.Kind == uthread.KindWork {
			p.Sleep(e.cfg.WorkTime(req.Instr))
			e.c.workInstr += int64(req.Instr)
			req = th.Resume(nil)
		}

		switch req.Kind {
		case uthread.KindAccess:
			// Syscall entry, kernel queueing, unconditional doorbell,
			// then the kernel de-schedules the thread.
			p.Sleep(e.cfg.SyscallCost)
			q.submit(p, th, req.Addrs)
			q.doorbell(p)
			p.Sleep(e.cfg.KernelCtxSwitch) // de-schedule
		case uthread.KindDone:
			live--
		}
	}
	e.c.coreFinished(p.Now())
}

// RunKernelQueue measures the kernel-managed software-queue interface —
// the baseline the paper rules out in §III-A. Included to quantify that
// dismissal: per-access syscalls, kernel context switches, and
// completion interrupts dwarf a microsecond access.
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
