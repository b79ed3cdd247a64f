package experiments

import (
	"slices"
	"strings"

	"repro/internal/stats"
)

// family is the part of the catalogue an experiment belongs to; the
// family plans (PaperPlan, ExtensionPlan, FleetPlan) are the registry
// entries of their families, in registry order.
type family int

const (
	paperFigure  family = iota // run by PaperPlan
	fig10Panel                 // resolvable alone; PaperPlan runs fig10 whole
	ablation                   // run by PaperPlan
	extension                  // run by ExtensionPlan
	clusterScale               // run by FleetPlan
)

// planEntry is one user-selectable experiment: its canonical id, the
// short aliases the CLI accepts for it, a one-line description for
// listings, its family, and the experiment it runs.
type planEntry struct {
	id      string
	aliases []string
	desc    string
	fam     family
	run     func(Suite) []*stats.Table
}

// step is the entry as a plan step of suite s, named by its id.
func (e planEntry) step(s Suite) Experiment {
	return Experiment{ID: e.id, Run: func() []*stats.Table { return e.run(s) }}
}

// oneTable adapts a single-table experiment method to a registry run.
func oneTable(f func(Suite) *stats.Table) func(Suite) []*stats.Table {
	return func(s Suite) []*stats.Table { return []*stats.Table{f(s)} }
}

// fig10Sub selects one of Fig10's four application panels by id suffix.
func fig10Sub(suffix string) func(Suite) []*stats.Table {
	return func(s Suite) []*stats.Table {
		for _, t := range s.Fig10() {
			if strings.HasSuffix(t.ID, suffix) {
				return []*stats.Table{t}
			}
		}
		return nil
	}
}

// planRegistry is the experiment catalogue: the single source of
// runnable experiment ids, shared by PlanFor (the killerusec/kurecd id
// resolver), Plans (the killerusec listings) and the family plans.
var planRegistry = []planEntry{
	{"fig2", []string{"2"}, "on-demand access: work IPC vs work-count at 1/2/4us (§V-A)", paperFigure, oneTable(Suite.Fig2)},
	{"fig3", []string{"3"}, "prefetch vs thread count at 1/2/4us; the 10-entry LFB knee (§V-B)", paperFigure, oneTable(Suite.Fig3)},
	{"fig4", []string{"4"}, "prefetch at 1us across work-counts: more work, fewer threads needed (§V-B)", paperFigure, oneTable(Suite.Fig4)},
	{"fig5", []string{"5"}, "multicore prefetch: per-core LFBs aggregate into the 14-entry chip queue (§V-B)", paperFigure, oneTable(Suite.Fig5)},
	{"fig6", []string{"6"}, "prefetch with MLP 1/2/4: multi-read batches burn LFBs faster (§V-B)", paperFigure, oneTable(Suite.Fig6)},
	{"fig7", []string{"7"}, "prefetch vs software queues at 1/4us: SWQ passes the LFB limit, overhead-capped (§V-C)", paperFigure, oneTable(Suite.Fig7)},
	{"fig8", []string{"8"}, "multicore software queues into the PCIe request-rate wall (§V-C)", paperFigure, oneTable(Suite.Fig8)},
	{"fig9", []string{"9"}, "software queues with MLP at one and four cores (§V-C)", paperFigure, oneTable(Suite.Fig9)},
	{"fig10", []string{"10"}, "application case studies: BFS, Bloom, memcached, ubench (§V-D)", paperFigure, Suite.Fig10},
	{"fig10a", []string{"10a"}, "Fig10 panel a only", fig10Panel, fig10Sub("10a")},
	{"fig10b", []string{"10b"}, "Fig10 panel b only", fig10Panel, fig10Sub("10b")},
	{"fig10c", []string{"10c"}, "Fig10 panel c only", fig10Panel, fig10Sub("10c")},
	{"fig10d", []string{"10d"}, "Fig10 panel d only", fig10Panel, fig10Sub("10d")},
	{"ablation-lfb", []string{"lfb"}, "lift the per-core LFB limit: can 4us match DRAM? (§V-B)", ablation, oneTable(Suite.AblationLFB)},
	{"ablation-chipq", []string{"chipq"}, "size the chip queue by the 20·latency·cores rule (§V-B)", ablation, oneTable(Suite.AblationChipQueue)},
	{"ablation-rule", []string{"rule"}, "derive the 10-20 in-flight-per-us provisioning coefficient (§V-B)", ablation, oneTable(Suite.AblationRule)},
	{"ablation-switch", []string{"switch"}, "sweep context-switch cost from Pth's ~2us to the paper's 20-50ns (§IV-B)", ablation, oneTable(Suite.AblationSwitchCost)},
	{"ablation-swqopts", []string{"swqopts"}, "remove the doorbell-flag and burst SWQ optimizations (§III-A)", ablation, oneTable(Suite.AblationSWQOpts)},
	{"ext-kernelq", []string{"kernelq"}, "kernel-managed queues vs the paper's three interfaces (§III-A)", extension, oneTable(Suite.ExpKernelQueue)},
	{"ext-smt", []string{"smt"}, "SMT as the only on-demand latency aid (§III-B)", extension, oneTable(Suite.ExpSMT)},
	{"ext-writes", []string{"writes"}, "write paths: posted stores vs per-descriptor SWQ cost (§VII)", extension, oneTable(Suite.ExpWrites)},
	{"ext-membus", []string{"membus"}, "device on the memory interconnect with rule-sized queues (§V-B)", extension, oneTable(Suite.ExpMemBus)},
	{"ext-tail", []string{"tail"}, "heavy-tailed device latency: head-of-line blocking on outliers", extension, oneTable(Suite.ExpTailLatency)},
	{"ext-ptrchase", []string{"ptrchase"}, "pointer-chase dependence chains: no self-overlap (§I)", extension, oneTable(Suite.ExpPointerChase)},
	{"ext-devices", []string{"devices"}, "emerging device classes: NVM, RDMA, flash points (§I)", extension, oneTable(Suite.ExpDevices)},
	{"ext-locality", []string{"locality"}, "cacheable MMIO locality advantage (§III-B, §V-C)", extension, oneTable(Suite.ExpLocality)},
	{"ext-faults", []string{"faults"}, "graceful degradation under deterministic fault injection", extension, Suite.ExpFaults},
	{"cluster", []string{"fleet"}, "fleet simulation: routing policies, arrival shapes, and backend mechanisms vs fleet p99", clusterScale, Suite.ExpCluster},
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

// familyPlan returns the steps of every registry entry in the given
// families, in registry order.
func (s Suite) familyPlan(fams ...family) []Experiment {
	var plan []Experiment
	for _, e := range planRegistry {
		if slices.Contains(fams, e.fam) {
			plan = append(plan, e.step(s))
		}
	}
	return plan
}

// PaperPlan returns every paper experiment (figures + ablations) in
// paper order as named plan steps.
func (s Suite) PaperPlan() []Experiment { return s.familyPlan(paperFigure, ablation) }

// ExtensionPlan returns the beyond-the-paper experiments as named plan
// steps.
func (s Suite) ExtensionPlan() []Experiment { return s.familyPlan(extension) }

// FleetPlan returns the cluster-scale experiments as named plan steps.
func (s Suite) FleetPlan() []Experiment { return s.familyPlan(clusterScale) }

// PlanFor maps a user-facing experiment id (canonical or alias) onto a
// one-element execution plan, or nil if the id is unknown. It is the
// single id resolver shared by the killerusec CLI and the kurecd
// server, so both accept exactly the same names.
func PlanFor(s Suite, id string) []Experiment {
	for _, e := range planRegistry {
		if e.id == id || slices.Contains(e.aliases, id) {
			return []Experiment{e.step(s)}
		}
	}
	return nil
}
