// Package workload provides the benchmarks of the paper's evaluation
// (§IV-C): the parameterized microbenchmark and the three data-intensive
// applications (Graph500 BFS, Bloom filter, Memcached lookups), all
// expressed against the core.Workload interface so every benchmark runs
// under every access mechanism.
package workload

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/replay"
	"repro/internal/uthread"
)

// DefaultWorkCount is the microbenchmark's default work instructions per
// device access. 200 instructions puts one loop iteration just past the
// ~192-instruction window, reproducing the regime the paper describes:
// the out-of-order core finds essentially no cross-iteration overlap, so
// the DRAM baseline pays most of its memory latency and 10 threads at
// 1 µs land near DRAM parity (Fig 3).
const DefaultWorkCount = 200

// LineSize is the device access granularity.
const LineSize = 64

// coreRegion returns the base of a core's private device address range;
// the emulator steers per-core requests by address range (§IV-A).
func coreRegion(coreID int) uint64 { return uint64(coreID) << 40 }

// Microbench is the carefully crafted microbenchmark of §IV-C: each loop
// iteration performs Reads independent device accesses to fresh cache
// lines followed by WorkInstr dependent arithmetic instructions limited
// to IPC ~1.4. Reads is the MLP knob (the 1-read/2-read/4-read variants
// of §V-B); each multi-read batch performs a single context switch.
type Microbench struct {
	// IterationsPerCore is the total loop iterations executed by each
	// core, split across that core's threads.
	IterationsPerCore int
	// WorkInstr is the work-count: work instructions per iteration.
	WorkInstr int
	// Reads is the number of independent device accesses per iteration.
	Reads int
	// Writes is the number of posted device writes per iteration
	// (§VII extension; zero reproduces the paper's read-only loop).
	Writes int
}

// NewMicrobench returns a microbenchmark configuration; reads<=0 is
// treated as 1.
func NewMicrobench(itersPerCore, workInstr, reads int) *Microbench {
	if reads <= 0 {
		reads = 1
	}
	return &Microbench{IterationsPerCore: itersPerCore, WorkInstr: workInstr, Reads: reads}
}

// NewMicrobenchRW returns a read/write microbenchmark: each iteration
// performs reads device reads, then writes posted device writes, then
// the work block. The writes touch fresh lines disjoint from the reads.
func NewMicrobenchRW(itersPerCore, workInstr, reads, writes int) *Microbench {
	m := NewMicrobench(itersPerCore, workInstr, reads)
	m.Writes = writes
	return m
}

// Name identifies the configuration, e.g. "ubench-w200-r4".
func (m *Microbench) Name() string {
	if m.Writes > 0 {
		return fmt.Sprintf("ubench-w%d-r%d-wr%d", m.WorkInstr, m.Reads, m.Writes)
	}
	return fmt.Sprintf("ubench-w%d-r%d", m.WorkInstr, m.Reads)
}

// Backing returns zero lines: the microbenchmark never inspects the
// data it loads ("the work comprises only arithmetic instructions",
// §IV-C).
func (m *Microbench) Backing() replay.Backing { return replay.ZeroBacking{} }

// split returns how many iterations thread threadID of n runs.
func (m *Microbench) split(threadID, n int) int {
	per := m.IterationsPerCore / n
	if threadID < m.IterationsPerCore%n {
		per++
	}
	return per
}

// Body returns one thread's loop as a step function: each iteration is
// a batch of reads, a batch of posted writes and the work block, an
// empty batch or a work block of no instructions issuing no request.
// Every access touches a different cache line ("ensuring ... there is
// no temporal or spatial locality across accesses", §IV-C): each thread
// strides through a private region of its core's address range.
func (m *Microbench) Body(coreID, threadID, threadsPerCore int) uthread.Step {
	iters := m.split(threadID, threadsPerCore)
	base := coreRegion(coreID) | uint64(threadID)<<28
	wbase := base | 1<<27 // write lines disjoint from read lines
	work := m.WorkInstr
	addrs := make([]uint64, m.Reads)
	waddrs := make([]uint64, m.Writes)
	line, wline := uint64(0), uint64(0)
	i, phase := 0, 0 // the iteration, and its next request: reads, writes, work
	return func([][]byte) (uthread.Request, bool) {
		for i < iters {
			p := phase
			if phase++; phase == 3 {
				phase, i = 0, i+1
			}
			switch {
			case p == 0 && len(addrs) > 0:
				for j := range addrs {
					addrs[j] = base + line*LineSize
					line++
				}
				return uthread.Request{Kind: uthread.KindAccess, Addrs: addrs}, true
			case p == 1 && len(waddrs) > 0:
				for j := range waddrs {
					waddrs[j] = wbase + wline*LineSize
					wline++
				}
				return uthread.Request{Kind: uthread.KindWrite, Addrs: waddrs}, true
			case p == 2 && work > 0:
				return uthread.Request{Kind: uthread.KindWork, Instr: work}, true
			}
		}
		return uthread.Request{}, false
	}
}

// BaselineTrace returns the single-threaded demand trace: the same
// iterations with the device access replaced by "a pointer dereference
// to a data structure stored in DRAM" (§IV-C). Posted writes do not
// appear: in the DRAM baseline the store buffer absorbs them off the
// critical path, the same property §VII relies on for device writes.
func (m *Microbench) BaselineTrace(coreID int) []cpu.IterSpec {
	return cpu.UniformTrace(m.IterationsPerCore, m.Reads, m.WorkInstr)
}
