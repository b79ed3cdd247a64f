package workload

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/replay"
	"repro/internal/uthread"
)

// PointerChase is the worst case the paper's introduction motivates:
// "pointer-based serial dependence chains commonly found in modern
// server workloads" [6]. Each device line holds the address of the
// next, so a thread can never have more than one access of its own in
// flight — all access-level parallelism must come from running many
// threads, which is precisely what the prefetch + user-level-switch
// mechanism provides and what on-demand execution cannot do (the window
// finds no independent loads at all).
type PointerChase struct {
	// Nodes is the number of chain nodes resident on the device.
	Nodes int
	// HopsPerCore is the per-core dereference budget, split across the
	// core's threads so total work is thread-count-independent.
	HopsPerCore int
	// WorkInstr is the benign work per hop.
	WorkInstr int

	arena []byte // device-resident nodes: each line's first 8 bytes = next address offset

	// Hops counts dereferences actually performed (observed result).
	Hops int
}

// NewPointerChase builds a single cyclic pseudo-random chain over all
// nodes (a Sattolo cycle), so every traversal is a maximally
// cache-unfriendly walk with no locality.
func NewPointerChase(nodes, hopsPerCore, workInstr int) *PointerChase {
	if nodes < 2 {
		panic(fmt.Sprintf("workload: pointer chase needs >=2 nodes, got %d", nodes))
	}
	p := &PointerChase{
		Nodes:       nodes,
		HopsPerCore: hopsPerCore,
		WorkInstr:   workInstr,
		arena:       make([]byte, nodes*LineSize),
	}
	// Sattolo's algorithm: a single cycle visiting every node, using
	// the deterministic mixer for reproducibility.
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = i
	}
	for i := nodes - 1; i > 0; i-- {
		j := int(splitmix64(uint64(i)+0x5EED) % uint64(i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < nodes; i++ {
		from, to := perm[i], perm[(i+1)%nodes]
		binary.LittleEndian.PutUint64(p.arena[from*LineSize:], uint64(to*LineSize))
	}
	return p
}

// Name implements core.Workload.
func (p *PointerChase) Name() string { return fmt.Sprintf("ptrchase-n%d", p.Nodes) }

// Backing exposes the chain arena in every core region.
func (p *PointerChase) Backing() replay.Backing { return mirrorBacking{data: p.arena} }

// startNode gives each thread a distinct, deterministic entry point.
func (p *PointerChase) startNode(coreID, threadID int) uint64 {
	return (splitmix64(uint64(coreID)<<20|uint64(threadID)) % uint64(p.Nodes)) * LineSize
}

// Body implements core.Workload: follow the chain, the next address
// coming out of each fetched line — control flow genuinely depends on
// device data, so replay fidelity is load-bearing here. The step that
// receives a line takes the next address from it and asks for the hop's
// work; the step after issues the next dereference.
func (p *PointerChase) Body(coreID, threadID, threadsPerCore int) uthread.Step {
	base := coreRegion(coreID)
	hops := p.HopsPerCore / threadsPerCore
	if threadID < p.HopsPerCore%threadsPerCore {
		hops++
	}
	next := p.startNode(coreID, threadID)
	var addr [1]uint64
	return func(lines [][]byte) (uthread.Request, bool) {
		if lines != nil {
			next = binary.LittleEndian.Uint64(lines[0][:8])
			p.Hops++
			if p.WorkInstr > 0 {
				return uthread.Request{Kind: uthread.KindWork, Instr: p.WorkInstr}, true
			}
		}
		if hops == 0 {
			return uthread.Request{}, false
		}
		hops--
		addr[0] = base + next
		return uthread.Request{Kind: uthread.KindAccess, Addrs: addr[:]}, true
	}
}

// BaselineTrace implements core.Workload. In the DRAM baseline the
// serial dependence chain exposes zero MLP: each load's address comes
// out of the previous load, so the trace marks every iteration
// Dependent and the interval model serializes the loads — exactly why
// "pointer-based serial dependence chains" defeat out-of-order latency
// hiding.
func (p *PointerChase) BaselineTrace(coreID int) []cpu.IterSpec {
	trace := make([]cpu.IterSpec, p.HopsPerCore)
	for i := range trace {
		trace[i] = cpu.IterSpec{Reads: 1, WorkInstr: p.WorkInstr, Dependent: true}
	}
	return trace
}

// Reset clears observed counters between runs.
func (p *PointerChase) Reset() { p.Hops = 0 }
