package experiments

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/stats"
	"repro/internal/workload"
)

// faultRates is the injected-fault-rate sweep of the ExpFaults family.
// Rate 0 is the control: a disabled plan takes the exact fault-free
// code path, so its datapoints are bit-identical to a clean run.
var faultRates = []float64{0, 0.002, 0.01, 0.05}

// faultSeed fixes the draw stream so the family is reproducible.
const faultSeed = 42

// faultMechs are the access mechanisms under test, as cell templates
// that each run completes with its config and workload. Series are
// labeled by Mech.
var faultMechs = []CellSpec{
	{Mech: "ondemand"},
	{Mech: "prefetch", Threads: 10},
	{Mech: "swqueue", Threads: 10},
	{Mech: "kernelq", Threads: 4},
}

// faultRuns submits one cell per mechanism and fault plan,
// mechanism-major, and returns the futures indexed [mechanism][plan].
func (s Suite) faultRuns(wl WorkloadSpec, plans []fault.Plan) [][]*Future {
	runs := make([][]*Future, len(faultMechs))
	for i, m := range faultMechs {
		m.Config, m.Workload = s.Base, wl
		for _, p := range plans {
			m.Config.Faults = p
			runs[i] = append(runs[i], s.exec(m))
		}
	}
	return runs
}

// ExpFaults measures graceful degradation of every access mechanism
// under deterministic fault injection: a rate sweep applies the same
// probability to the dominant fault layers (dropped completions, device
// stragglers, corrupted TLPs) and records, per mechanism, the
// throughput retained relative to its own fault-free run, the
// p99/p999 host-observed access latency, and the retry amplification —
// plus a per-layer breakdown at a fixed 1% rate. All tables come from
// one run matrix, so they describe the same runs.
func (s Suite) ExpFaults() []*stats.Table {
	wl := s.ubenchSpec(1, workload.DefaultWorkCount)
	ratePlans := make([]fault.Plan, len(faultRates))
	for i, rate := range faultRates {
		ratePlans[i] = fault.Plan{
			Seed:               faultSeed,
			DropCompletionProb: rate,
			StragglerProb:      rate,
			TLPCorruptProb:     rate,
		}
	}
	// The layer breakdown's first plan is the base platform's own, the
	// clean run each layer is normalized to.
	layerPlans := []fault.Plan{s.Base.Faults}
	for _, l := range faultLayers {
		layerPlans = append(layerPlans, l.plan)
	}
	rated := s.faultRuns(wl, ratePlans)
	layered := s.faultRuns(wl, layerPlans)

	throughput := &stats.Table{
		ID:     "exp-faults-throughput",
		Title:  "Throughput retained under injected faults",
		XLabel: "fault rate (drop/straggler/TLP-corrupt)",
		YLabel: "fraction of fault-free work IPS",
	}
	tail := &stats.Table{
		ID:     "exp-faults-tail",
		Title:  "Access-latency tail under injected faults",
		XLabel: "fault rate (drop/straggler/TLP-corrupt)",
		YLabel: "host-observed access latency, ns",
	}
	retries := &stats.Table{
		ID:     "exp-faults-retries",
		Title:  "Retry amplification under injected faults",
		XLabel: "fault rate (drop/straggler/TLP-corrupt)",
		YLabel: "retries per access",
	}
	for i, m := range faultMechs {
		tp := throughput.AddSeries(m.Mech)
		p99 := tail.AddSeries(m.Mech + " p99")
		p999 := tail.AddSeries(m.Mech + " p999")
		amp := retries.AddSeries(m.Mech)
		// faultRates[0] is the rate-0 control.
		cleanIPS := must(rated[i][0].Result()).WorkIPS()
		for j, rate := range faultRates {
			r := must(rated[i][j].Result())
			tp.Add(rate, r.WorkIPS()/cleanIPS)
			p99.Add(rate, r.Diag.AccessP99Ns)
			p999.Add(rate, r.Diag.AccessP999Ns)
			amp.Add(rate, float64(r.Diag.Retries)/float64(r.Accesses))
			if rate == 0.01 {
				throughput.Note("%s at 1%%: retries=%d timeouts=%d abandoned=%d (faults: %d dropped, %d stragglers, %d corrupt TLPs)",
					m.Mech, r.Diag.Retries, r.Diag.Timeouts, r.Diag.Abandoned,
					r.Diag.Faults.DroppedCompletions, r.Diag.Faults.Stragglers, r.Diag.Faults.CorruptTLPs)
			}
		}
	}
	throughput.Note("rate-0 points are bit-identical to fault-free runs (disabled plans take the exact clean code path)")

	return []*stats.Table{throughput, tail, retries, faultLayerTable(layered)}
}

// faultLayers enumerates the per-layer plans of the 1% breakdown. Each
// plan activates exactly one fault mechanism; the layers that only
// exist on the software-queue path (doorbell loss, CQ overflow) degrade
// nothing elsewhere, which the table makes visible.
var faultLayers = []struct {
	name string
	plan fault.Plan
}{
	{"drop-completion", fault.Plan{Seed: faultSeed, DropCompletionProb: 0.01}},
	{"straggler", fault.Plan{Seed: faultSeed, StragglerProb: 0.01}},
	{"duplicate", fault.Plan{Seed: faultSeed, DuplicateProb: 0.01}},
	{"TLP-corrupt", fault.Plan{Seed: faultSeed, TLPCorruptProb: 0.01}},
	{"link-stall", fault.Plan{Seed: faultSeed, LinkStallProb: 0.01}},
	{"doorbell-drop", fault.Plan{Seed: faultSeed, DoorbellDropProb: 0.01}},
	{"cq-overflow", fault.Plan{Seed: faultSeed, CQCapacity: 4}},
}

// faultLayerTable is the per-layer breakdown: one fault mechanism at a
// time, 1% rate (or a 4-entry CQ bound), throughput retained per
// access mechanism. runs[i][0] is mechanism i's clean run and
// runs[i][1+j] its run under faultLayers[j]. X is the layer's index
// into the noted legend.
func faultLayerTable(runs [][]*Future) *stats.Table {
	t := &stats.Table{
		ID:     "exp-faults-layers",
		Title:  "Per-layer fault impact at 1% rate",
		XLabel: "fault layer (see legend note)",
		YLabel: "fraction of fault-free work IPS",
	}
	legend := ""
	for i, l := range faultLayers {
		if i > 0 {
			legend += ", "
		}
		legend += fmt.Sprintf("%d=%s", i, l.name)
	}
	t.Note("layers: %s", legend)
	for i, m := range faultMechs {
		series := t.AddSeries(m.Mech)
		clean := must(runs[i][0].Result()).WorkIPS()
		for j := range faultLayers {
			series.Add(float64(j), must(runs[i][1+j].Result()).WorkIPS()/clean)
		}
	}
	return t
}
