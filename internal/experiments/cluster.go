package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// clusterSeed fixes the fleet arrival timeline, key stream, and
// weighted-router draws; like KroneckerSeed it is part of a run's
// parameterization.
const clusterSeed = 20180610

// ClusterSpec is the value description of one fleet cell, embedded in
// CellSpec so cluster runs ride the same content-addressed cache and
// worker pool as every other cell. The zero value means "not a
// cluster cell".
type ClusterSpec struct {
	Instances int
	Backend   string // per-instance mechanism: prefetch, swqueue, ondemand
	Policy    string
	Shape     string

	Workers    int
	ValueLines int
	WorkInstr  int
	Items      int
	ValueSkew  bool

	Requests   int
	RatePerSec float64
	Rho        float64
	Seed       uint64

	// Shards is the worker-goroutine count for one fleet cell's engine
	// advances (cluster.Config.Shards). It is an execution knob with no
	// effect on results — the sharded driver is byte-deterministic — so
	// CellSpec.Key zeroes it: a cached serial result answers a sharded
	// request and vice versa.
	Shards int
}

// runCluster executes one fleet cell and packages the summary as a
// core.Result so it flows through the executor, the cache, and the
// report layer like any single-host measurement.
func runCluster(c CellSpec) (core.Result, error) {
	cs := c.Cluster
	sum, err := cluster.Run(cluster.Config{
		Base:       c.Config,
		Instances:  cs.Instances,
		Mech:       cs.Backend,
		Policy:     cs.Policy,
		Shape:      cs.Shape,
		Workers:    cs.Workers,
		ValueLines: cs.ValueLines,
		WorkInstr:  cs.WorkInstr,
		Items:      cs.Items,
		ValueSkew:  cs.ValueSkew,
		Requests:   cs.Requests,
		RatePerSec: cs.RatePerSec,
		Rho:        cs.Rho,
		Seed:       cs.Seed,
		Shards:     cs.Shards,
	})
	if err != nil {
		return core.Result{}, err
	}
	res := core.Result{
		Measurement: stats.Measurement{
			Label: fmt.Sprintf("cluster/%s n=%d %s %s lat=%v rho=%.2f",
				cs.Backend, cs.Instances, cs.Policy, cs.Shape, c.Config.DeviceLatency, cs.Rho),
			Iterations:     cs.Requests,
			Accesses:       int(sum.Completed),
			WorkInstr:      float64(sum.Completed) * float64(cs.WorkInstr),
			ElapsedSeconds: float64(sum.ElapsedSeconds),
			AccessP50Ns:    float64(sum.P50Ns),
			AccessP99Ns:    float64(sum.P99Ns),
			AccessP999Ns:   float64(sum.P999Ns),
		},
		Fleet: sum,
	}
	return res, nil
}

// fleetSpec parameterizes the shared shape of the ExpCluster cells.
func (s Suite) fleetSpec(backend, policy, shape string, rho, rate float64) CellSpec {
	requests, instances := 9000, 6
	if s.Quick {
		requests, instances = 3000, 4
	}
	return CellSpec{
		Mech:   "cluster",
		Config: s.Base,
		Cluster: ClusterSpec{
			Instances:  instances,
			Backend:    backend,
			Policy:     policy,
			Shape:      shape,
			Workers:    16,
			ValueLines: 4,
			WorkInstr:  100,
			Items:      4096,
			ValueSkew:  true,
			Requests:   requests,
			RatePerSec: rate,
			Rho:        rho,
			Seed:       clusterSeed,
			Shards:     s.FleetShards,
		},
	}
}

// fleetCapacity measures the fleet's intrinsic service rate for one
// backend: a saturate-shape probe (the whole batch offered at once)
// through the normal cell path, so the probe is cached and the rates
// derived from it are deterministic.
func (s Suite) fleetCapacity(backend string) float64 {
	probe := s.fleetSpec(backend, cluster.PolicyRoundRobin, cluster.ShapeSaturate, 0, 0)
	probe.Cluster.Requests = probe.Cluster.Requests / 2
	r := s.runCell(probe)
	return float64(r.Fleet.CompletedPerSec)
}

// fleetRhos is the offered-load sweep of the policy and shape tables,
// as fractions of measured fleet capacity.
func fleetRhos(quick bool) []float64 {
	if quick {
		return []float64{0.5, 0.9}
	}
	return []float64{0.5, 0.75, 0.9}
}

// fleetMechLoads is the offered-load sweep of the mechanism table,
// relative to the prefetch fleet's capacity at the long latency — it
// deliberately crosses 1.0 so the prefetch fleet is driven past its
// LFB-capped knee while the SWQ fleet still has headroom.
var fleetMechLoads = []float64{0.5, 0.9, 1.4, 1.8}

// ExpCluster runs the fleet simulations: routing policies and arrival
// shapes against fleet-level p99 at swept load, and the two paper
// mechanisms as fleet backends at a long device latency. Capacity
// probes are adaptive (the offered rates depend on their results), so
// they run first through the synchronous cached path; the swept cells
// then all submit up front and resolve in program order, keeping the
// tables byte-identical at any worker count.
func (s Suite) ExpCluster() []*stats.Table {
	policies := &stats.Table{
		ID:     "cluster-policies",
		Title:  "Fleet p99 vs offered load by routing policy (open-loop poisson arrivals)",
		XLabel: "offered load (fraction of fleet capacity)",
		YLabel: "fleet p99 end-to-end latency, us",
	}
	shapes := &stats.Table{
		ID:     "cluster-shapes",
		Title:  "Fleet p99 vs offered load by arrival shape (least-outstanding routing)",
		XLabel: "offered load (fraction of fleet capacity)",
		YLabel: "fleet p99 end-to-end latency, us",
	}
	mechs := &stats.Table{
		ID:     "cluster-mechs",
		Title:  "Load absorbed per fleet by backend mechanism at 4us device latency",
		XLabel: "offered load (fraction of prefetch fleet capacity)",
		YLabel: "completion rate / offered rate",
	}

	// Policy and shape sweeps: prefetch backends at the default 1us
	// device, loads set by the capacity probe.
	cap1 := s.fleetCapacity("prefetch")
	type fleetCell struct {
		series *stats.Series
		x      float64
		fut    *Future
	}
	var cells []fleetCell
	add := func(t *stats.Table, label string, x float64, spec CellSpec) {
		sr := t.FindSeries(label)
		if sr == nil {
			sr = t.AddSeries(label)
		}
		cells = append(cells, fleetCell{series: sr, x: x, fut: s.exec(spec)})
	}
	for _, policy := range cluster.Policies() {
		for _, rho := range fleetRhos(s.Quick) {
			add(policies, policy, rho, s.fleetSpec("prefetch", policy, cluster.ShapePoisson, rho, rho*cap1))
		}
	}
	for _, shape := range []string{cluster.ShapePoisson, cluster.ShapeBursty} {
		for _, rho := range fleetRhos(s.Quick) {
			add(shapes, shape, rho, s.fleetSpec("prefetch", cluster.PolicyLeastOutstanding, shape, rho, rho*cap1))
		}
	}

	// Mechanism sweep at the long latency: the prefetch fleet's
	// capacity shrinks with latency (LFB-bound), the SWQ fleet's does
	// not (core-overhead-bound), so the same absolute rates separate
	// them. x is relative to the prefetch fleet's own capacity.
	long := s
	long.Base = s.Base.WithLatency(4 * sim.Microsecond)
	cap4 := long.fleetCapacity("prefetch")
	for _, backend := range []string{"prefetch", "swqueue"} {
		for _, load := range fleetMechLoads {
			spec := long.fleetSpec(backend, cluster.PolicyLeastOutstanding, cluster.ShapePoisson, load, load*cap4)
			add(mechs, backend, load, spec)
		}
	}

	for _, c := range cells {
		r := must(c.fut.Result())
		f := r.Fleet
		var y float64
		if f.OfferedPerSec > 0 {
			if c.series.Label == "prefetch" || c.series.Label == "swqueue" {
				y = float64(f.CompletedPerSec / f.OfferedPerSec)
			} else {
				y = float64(f.P99Ns / 1000)
			}
		}
		c.series.Add(c.x, y)
		c.series.AttachFleet(f)
	}

	pol99 := func(label string, rho float64) float64 {
		return policies.FindSeries(label).YAt(rho)
	}
	policies.Note("at rho=0.9, least-outstanding p99 %.2fus vs round-robin %.2fus: adaptive routing drains the instance that drew a run of fat values",
		pol99(cluster.PolicyLeastOutstanding, 0.9), pol99(cluster.PolicyRoundRobin, 0.9))
	shapes.Note("the bursty shape offers the same mean rate compressed into half-duty on-windows; its p99 at rho=0.9 is %.1fx the poisson tail",
		shapes.FindSeries(cluster.ShapeBursty).YAt(0.9)/shapes.FindSeries(cluster.ShapePoisson).YAt(0.9))
	mechs.Note("past the prefetch fleet's LFB-capped knee (x>1) the SWQ fleet keeps absorbing: per-descriptor core overhead, not the 10-entry LFB, is its only cap")
	return []*stats.Table{policies, shapes, mechs}
}
