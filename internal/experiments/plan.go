package experiments

import (
	"strings"

	"repro/internal/stats"
)

// planEntry is one user-selectable experiment: its canonical id, the
// short aliases the CLI accepts for it, a one-line description for
// listings, and the plan constructor.
type planEntry struct {
	id      string
	aliases []string
	desc    string
	make    func(Suite) []Experiment
}

// oneTable adapts a single-table experiment method into a one-step plan.
func oneTable(pid string, f func(Suite) *stats.Table) func(Suite) []Experiment {
	return func(s Suite) []Experiment {
		return []Experiment{{ID: pid, Run: func() []*stats.Table {
			return []*stats.Table{f(s)}
		}}}
	}
}

// multiTable adapts a multi-table experiment method into a one-step plan.
func multiTable(pid string, f func(Suite) []*stats.Table) func(Suite) []Experiment {
	return func(s Suite) []Experiment {
		return []Experiment{{ID: pid, Run: func() []*stats.Table { return f(s) }}}
	}
}

// fig10Sub selects one of Fig10's four application panels by id suffix.
func fig10Sub(suffix string) func(Suite) []Experiment {
	return func(s Suite) []Experiment {
		return []Experiment{{ID: "fig" + suffix, Run: func() []*stats.Table {
			for _, t := range s.Fig10() {
				if strings.HasSuffix(t.ID, suffix) {
					return []*stats.Table{t}
				}
			}
			return nil
		}}}
	}
}

// planRegistry is the single source of runnable experiment ids, shared
// by PlanFor (the killerusec/kurecd id resolver) and Plans (the
// `killerusec -plans` listing).
var planRegistry = []planEntry{
	{"fig2", []string{"2"}, "on-demand access: work IPC vs work-count at 1/2/4us (§V-A)", oneTable("fig2", Suite.Fig2)},
	{"fig3", []string{"3"}, "prefetch vs thread count at 1/2/4us; the 10-entry LFB knee (§V-B)", oneTable("fig3", Suite.Fig3)},
	{"fig4", []string{"4"}, "prefetch at 1us across work-counts: more work, fewer threads needed (§V-B)", oneTable("fig4", Suite.Fig4)},
	{"fig5", []string{"5"}, "multicore prefetch: per-core LFBs aggregate into the 14-entry chip queue (§V-B)", oneTable("fig5", Suite.Fig5)},
	{"fig6", []string{"6"}, "prefetch with MLP 1/2/4: multi-read batches burn LFBs faster (§V-B)", oneTable("fig6", Suite.Fig6)},
	{"fig7", []string{"7"}, "prefetch vs software queues at 1/4us: SWQ passes the LFB limit, overhead-capped (§V-C)", oneTable("fig7", Suite.Fig7)},
	{"fig8", []string{"8"}, "multicore software queues into the PCIe request-rate wall (§V-C)", oneTable("fig8", Suite.Fig8)},
	{"fig9", []string{"9"}, "software queues with MLP at one and four cores (§V-C)", oneTable("fig9", Suite.Fig9)},
	{"fig10", []string{"10"}, "application case studies: BFS, Bloom, memcached, ubench (§V-D)", multiTable("fig10", Suite.Fig10)},
	{"fig10a", []string{"10a"}, "Fig10 panel a only", fig10Sub("10a")},
	{"fig10b", []string{"10b"}, "Fig10 panel b only", fig10Sub("10b")},
	{"fig10c", []string{"10c"}, "Fig10 panel c only", fig10Sub("10c")},
	{"fig10d", []string{"10d"}, "Fig10 panel d only", fig10Sub("10d")},
	{"ablation-lfb", []string{"lfb"}, "lift the per-core LFB limit: can 4us match DRAM? (§V-B)", oneTable("ablation-lfb", Suite.AblationLFB)},
	{"ablation-chipq", []string{"chipq"}, "size the chip queue by the 20·latency·cores rule (§V-B)", oneTable("ablation-chipq", Suite.AblationChipQueue)},
	{"ablation-rule", []string{"rule"}, "derive the 10-20 in-flight-per-us provisioning coefficient (§V-B)", oneTable("ablation-rule", Suite.AblationRule)},
	{"ablation-switch", []string{"switch"}, "sweep context-switch cost from Pth's ~2us to the paper's 20-50ns (§IV-B)", oneTable("ablation-switch", Suite.AblationSwitchCost)},
	{"ablation-swqopts", []string{"swqopts"}, "remove the doorbell-flag and burst SWQ optimizations (§III-A)", oneTable("ablation-swqopts", Suite.AblationSWQOpts)},
	{"ext-kernelq", []string{"kernelq"}, "kernel-managed queues vs the paper's three interfaces (§III-A)", oneTable("ext-kernelq", Suite.ExpKernelQueue)},
	{"ext-smt", []string{"smt"}, "SMT as the only on-demand latency aid (§III-B)", oneTable("ext-smt", Suite.ExpSMT)},
	{"ext-writes", []string{"writes"}, "write paths: posted stores vs per-descriptor SWQ cost (§VII)", oneTable("ext-writes", Suite.ExpWrites)},
	{"ext-membus", []string{"membus"}, "device on the memory interconnect with rule-sized queues (§V-B)", oneTable("ext-membus", Suite.ExpMemBus)},
	{"ext-tail", []string{"tail"}, "heavy-tailed device latency: head-of-line blocking on outliers", oneTable("ext-tail", Suite.ExpTailLatency)},
	{"ext-ptrchase", []string{"ptrchase"}, "pointer-chase dependence chains: no self-overlap (§I)", oneTable("ext-ptrchase", Suite.ExpPointerChase)},
	{"ext-devices", []string{"devices"}, "emerging device classes: NVM, RDMA, flash points (§I)", oneTable("ext-devices", Suite.ExpDevices)},
	{"ext-locality", []string{"locality"}, "cacheable MMIO locality advantage (§III-B, §V-C)", oneTable("ext-locality", Suite.ExpLocality)},
	{"ext-faults", []string{"faults"}, "graceful degradation under deterministic fault injection", multiTable("ext-faults", Suite.ExpFaults)},
	{"cluster", []string{"fleet"}, "fleet simulation: routing policies, arrival shapes, and backend mechanisms vs fleet p99", multiTable("cluster", Suite.ExpCluster)},
}

// PlanInfo describes one runnable experiment id for listings.
type PlanInfo struct {
	ID      string
	Aliases []string
	Desc    string
}

// Plans returns every runnable experiment id with its aliases and
// one-line description, in registry (roughly paper) order.
func Plans() []PlanInfo {
	out := make([]PlanInfo, len(planRegistry))
	for i, e := range planRegistry {
		out[i] = PlanInfo{ID: e.id, Aliases: append([]string(nil), e.aliases...), Desc: e.desc}
	}
	return out
}

// PlanFor maps a user-facing experiment id (canonical or alias) onto a
// one-element execution plan, or nil if the id is unknown. It is the
// single id resolver shared by the killerusec CLI and the kurecd
// server, so both accept exactly the same names.
func PlanFor(s Suite, id string) []Experiment {
	for _, e := range planRegistry {
		if e.id == id {
			return e.make(s)
		}
		for _, a := range e.aliases {
			if a == id {
				return e.make(s)
			}
		}
	}
	return nil
}
