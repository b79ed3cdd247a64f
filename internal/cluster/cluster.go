// Package cluster composes many host+device instances into a fleet
// behind an open-loop arrival process and a request router — the step
// from the paper's single host hiding one device's microsecond latency
// to a memcached-style service absorbing an aggregate request stream.
//
// Each instance is a full core.Env simulation on its own sim.Engine;
// the driver advances every engine in lockstep to each arrival time,
// consults the routing policy against the instances' live queue state,
// and submits the request to the chosen instance's open-loop Server.
// Because the arrival timeline, the key stream, and every tie-break
// are pure functions of the seed, a fleet run is deterministic: the
// same Config always produces the same FleetSummary, byte for byte,
// which is what lets cluster cells ride the content-addressed result
// cache and the parallel sweep executor unchanged.
//
// Config.Shards spreads one fleet run across OS cores without touching
// that property. Instance engines share no state between routing
// decisions, so fanOut advances them concurrently to each saturation
// window boundary and the driver closes the windows serially, in fixed
// instance order. Policies that declare Lookahead pre-route the whole
// arrival timeline and run every instance's batch behind one join;
// state-dependent policies route each arrival on live queue state, so
// their per-arrival advances stay serial. See DESIGN.md §15 for the
// equivalence argument.
package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config parameterizes one fleet run.
type Config struct {
	Base platform.Config // per-instance platform (latency, queues, cores)

	Instances int    // host+device instances in the fleet
	Mech      string // per-instance backend: prefetch, swqueue, ondemand
	Policy    string // round-robin, least-outstanding, queue-weighted, key-affinity
	Shape     string // poisson, bursty, saturate

	Workers    int  // worker contexts per instance
	ValueLines int  // device lines fetched per request
	WorkInstr  int  // post-fetch work instructions per request
	Items      int  // memcached key space per instance
	ValueSkew  bool // key-dependent value sizes (mean stays ValueLines)

	Requests   int     // arrivals to generate
	RatePerSec float64 // fleet-wide offered load (ignored by shape saturate)
	Rho        float64 // informational: offered load / measured capacity

	// Shards is the number of goroutines that advance instance engines
	// together: every window boundary, and the whole arrival phase of
	// a Lookahead policy. 0 or 1 runs everything serially; values above
	// Instances clamp to it. Shards is an execution knob, never a
	// parameter: the summary is byte-identical at every value
	// (property-tested, CI-gated), so it is excluded from cell cache
	// keys.
	Shards int

	// BurstPeriod and BurstDuty shape the bursty arrival process: the
	// Poisson stream is compressed into the first Duty fraction of
	// every Period, leaving silent gaps — same mean rate, bursts at
	// Rate/Duty. Zero values take defaults (100us, 0.5).
	BurstPeriod sim.Time
	BurstDuty   float64

	// Window is the saturation observation window: per instance, a
	// window whose arrivals exceed its completions while more requests
	// are in flight than the worker pool is flagged saturated. Zero
	// takes a default of 50us.
	Window sim.Time

	Seed uint64 // arrival timeline, key stream, and weighted-policy seed
}

func (c Config) withDefaults() Config {
	if c.BurstPeriod <= 0 {
		c.BurstPeriod = 100 * sim.Microsecond
	}
	if c.BurstDuty <= 0 || c.BurstDuty > 1 {
		c.BurstDuty = 0.5
	}
	if c.Window <= 0 {
		c.Window = 50 * sim.Microsecond
	}
	return c
}

// Validate rejects configurations before any simulation starts.
func (c Config) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.Instances < 1 {
		return fmt.Errorf("cluster: need at least 1 instance, got %d", c.Instances)
	}
	switch c.Mech {
	case "prefetch", "swqueue", "ondemand":
	default:
		return fmt.Errorf("cluster: unknown mechanism %q", c.Mech)
	}
	switch c.Policy {
	case PolicyRoundRobin, PolicyLeastOutstanding, PolicyQueueWeighted, PolicyKeyAffinity:
	default:
		return fmt.Errorf("cluster: unknown policy %q", c.Policy)
	}
	switch c.Shape {
	case ShapePoisson, ShapeBursty, ShapeSaturate:
	default:
		return fmt.Errorf("cluster: unknown arrival shape %q", c.Shape)
	}
	if c.Workers < 1 {
		return fmt.Errorf("cluster: need at least 1 worker per instance, got %d", c.Workers)
	}
	if c.ValueLines < 1 {
		return fmt.Errorf("cluster: need at least 1 value line, got %d", c.ValueLines)
	}
	if c.Items < 1 {
		return fmt.Errorf("cluster: need at least 1 item, got %d", c.Items)
	}
	if c.Requests < 1 {
		return fmt.Errorf("cluster: need at least 1 request, got %d", c.Requests)
	}
	if c.Shape != ShapeSaturate && c.RatePerSec <= 0 {
		return fmt.Errorf("cluster: offered rate %g must be positive", c.RatePerSec)
	}
	if c.Shards < 0 {
		return fmt.Errorf("cluster: shards %d must be non-negative", c.Shards)
	}
	return nil
}

// satCounter is one instance's sliding-window saturation accounting.
// It carries its own worker-pool size so the barrier code no longer
// threads saturation parameters through every call site.
type satCounter struct {
	workers       int
	windows       int
	saturated     int
	prevArrived   uint64
	prevCompleted uint64
}

// instance is one fleet member: an Env, its open-loop server, and the
// sliding-window saturation accounting.
type instance struct {
	env *core.Env
	srv *core.Server
	sat satCounter
}

// closeWindow flags a window where arrivals outpaced completions while
// the backlog exceeded the worker pool — sustained oversubscription,
// not a transient burst one pool of workers absorbs. It reads only
// this instance's state, so shard workers may close windows for
// different instances concurrently.
func (in *instance) closeWindow() {
	arr, comp := in.srv.Arrived(), in.srv.Completed()
	s := &in.sat
	dArr, dComp := arr-s.prevArrived, comp-s.prevCompleted
	s.windows++
	if dArr > dComp && in.srv.Outstanding() > s.workers {
		s.saturated++
	}
	s.prevArrived, s.prevCompleted = arr, comp
}

// Run executes one fleet simulation and summarizes it.
func Run(cfg Config) (*stats.FleetSummary, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Every instance serves the same memcached-style item store; the
	// backing is content-only (no engine state, and reads return shared
	// read-only views of its dataset that no reader writes), so sharing
	// one across instances is safe — for the fanOut goroutines too —
	// and keeps N-instantiation cheap.
	backing := workload.NewMemcached(cfg.Items, cfg.ValueLines, 1, 1).Backing()
	insts := make([]*instance, cfg.Instances)
	for i := range insts {
		env := core.NewEnv(cfg.Base, backing)
		srv, err := core.NewServer(env, core.ServerConfig{
			Mech:       cfg.Mech,
			Workers:    cfg.Workers,
			ValueLines: cfg.ValueLines,
			WorkInstr:  cfg.WorkInstr,
			ValueSkew:  cfg.ValueSkew,
		})
		if err != nil {
			return nil, err
		}
		insts[i] = &instance{env: env, srv: srv, sat: satCounter{workers: cfg.Workers}}
	}

	arrivals := generateArrivals(cfg)
	router, err := newRouter(cfg)
	if err != nil {
		return nil, err
	}

	d := &driver{cfg: cfg, insts: insts, shards: min(cfg.Shards, cfg.Instances)}

	// Arrival phase. Policies that declare lookahead pre-route the
	// whole batch when sharded, so each engine runs its own arrivals
	// with no barrier between them; state-dependent policies route
	// every arrival on live queue state, advancing engines serially.
	perArrived := make([]uint64, cfg.Instances)
	var nextWindow sim.Time
	if d.shards > 1 && Lookahead(cfg.Policy) {
		nextWindow = d.runPrerouted(router, arrivals, perArrived)
	} else {
		nextWindow = d.runLockstep(router, arrivals, perArrived)
	}

	// Drain: no more arrivals; close the servers and keep advancing in
	// window-sized lockstep so the saturation accounting still observes
	// the backlog being worked off, not just the final state. If no
	// instance makes progress for a long stretch the loop hands over to
	// RunChecked, whose watchdog names the stuck process.
	for _, in := range insts {
		in.srv.Close()
	}
	idle := 0
	for backlog(insts) && idle < 1000 {
		before := totalCompleted(insts)
		d.advanceAll(nextWindow)
		nextWindow += cfg.Window
		if totalCompleted(insts) == before {
			idle++
		} else {
			idle = 0
		}
	}
	for _, in := range insts {
		if _, err := in.env.Engine().RunChecked(); err != nil {
			return nil, fmt.Errorf("cluster: instance drain: %w", err)
		}
	}
	var end sim.Time
	for _, in := range insts {
		if lc := in.srv.LastComplete(); lc > end {
			end = lc
		}
	}

	sum := summarize(cfg, insts, perArrived, end)
	for _, in := range insts {
		in.env.Engine().Recycle()
	}
	return sum, nil
}

// driver runs the fleet's barrier schedule, fanning engine advances
// out across shards goroutines where it can. The observable schedule —
// which engine reaches which timestamp before which routing decision
// and window close — is identical at every shard count; sharding only
// changes which OS thread does the advancing.
type driver struct {
	cfg    Config
	insts  []*instance
	shards int
}

// runLockstep is the per-arrival barrier schedule: advance every
// engine to each arrival's timestamp (closing out saturation windows
// on the way), then route on the instances' now-current queue state.
// The per-arrival advance is serial: a barrier per arrival carries
// only tens of events, too little work to pay for a goroutine join.
// It returns the window cursor for the drain phase.
func (d *driver) runLockstep(rt *router, arrivals []arrival, perArrived []uint64) sim.Time {
	nextWindow := d.cfg.Window
	for _, a := range arrivals {
		for nextWindow <= a.at {
			d.advanceAll(nextWindow)
			nextWindow += d.cfg.Window
		}
		for _, in := range d.insts {
			in.env.Engine().RunUntil(a.at)
		}
		target := rt.pick(d.insts, a.key)
		perArrived[target]++
		d.insts[target].srv.Submit(a.key)
	}
	return nextWindow
}

// runPrerouted is the batched arrival phase for lookahead policies:
// the routing sequence is precomputed with no engine state, each
// instance receives its own arrival batch, and fanOut runs every
// instance's full timeline — self-paced window closes included —
// behind a single join. Per instance this executes exactly the
// lockstep schedule (same submits at the same local clock, same window
// closes at the same boundaries); advances to *other* instances'
// arrival times are dropped, which only moves the clock of eventless
// engines and is therefore unobservable. See DESIGN.md §15.
func (d *driver) runPrerouted(rt *router, arrivals []arrival, perArrived []uint64) sim.Time {
	batches := make([][]arrival, len(d.insts))
	for _, a := range arrivals {
		t := rt.preroute(len(d.insts), a.key)
		perArrived[t]++
		batches[t] = append(batches[t], a)
	}
	// The serial driver closes every window boundary <= the last
	// arrival during the arrival phase, whichever instance the
	// arrivals went to; the batch runner reproduces that cutoff.
	last := arrivals[len(arrivals)-1].at
	fanOut(d.insts, d.shards, func(i int, in *instance) {
		runBatch(in, batches[i], d.cfg.Window, last)
	})
	return (last/d.cfg.Window + 1) * d.cfg.Window
}

// advanceAll runs every engine to the window boundary, then closes the
// window's saturation accounting in fixed instance order.
func (d *driver) advanceAll(boundary sim.Time) {
	fanOut(d.insts, d.shards, func(_ int, in *instance) {
		in.env.Engine().RunUntil(boundary)
	})
	for _, in := range d.insts {
		in.closeWindow()
	}
}

// backlog reports whether any instance still has requests in flight.
func backlog(insts []*instance) bool {
	for _, in := range insts {
		if in.srv.Outstanding() > 0 {
			return true
		}
	}
	return false
}

func totalCompleted(insts []*instance) uint64 {
	var n uint64
	for _, in := range insts {
		n += in.srv.Completed()
	}
	return n
}

func summarize(cfg Config, insts []*instance, perArrived []uint64, end sim.Time) *stats.FleetSummary {
	merged := stats.NewHistogram()
	sum := &stats.FleetSummary{
		Policy:        cfg.Policy,
		Shape:         cfg.Shape,
		Mech:          cfg.Mech,
		Rho:           stats.Float(cfg.Rho),
		OfferedPerSec: stats.Float(cfg.RatePerSec),
		Instances:     make([]stats.FleetInstance, len(insts)),
	}
	for i, in := range insts {
		sum.Events += in.env.Engine().Executed()
		h := in.srv.Latencies()
		merged.Merge(h)
		sum.Instances[i] = stats.FleetInstance{
			Arrived:          perArrived[i],
			Completed:        in.srv.Completed(),
			Windows:          in.sat.windows,
			SaturatedWindows: in.sat.saturated,
			PeakOutstanding:  in.srv.PeakOutstanding(),
			P50Ns:            stats.Float(sim.Time(h.Quantile(0.50)).Nanoseconds()),
			P99Ns:            stats.Float(sim.Time(h.Quantile(0.99)).Nanoseconds()),
			P999Ns:           stats.Float(sim.Time(h.Quantile(0.999)).Nanoseconds()),
		}
		sum.Arrived += perArrived[i]
		sum.Completed += in.srv.Completed()
	}
	sum.ElapsedSeconds = stats.Float(end.Seconds())
	if sum.ElapsedSeconds > 0 {
		sum.CompletedPerSec = stats.Float(float64(sum.Completed) / float64(sum.ElapsedSeconds))
	}
	sum.P50Ns = stats.Float(sim.Time(merged.Quantile(0.50)).Nanoseconds())
	sum.P99Ns = stats.Float(sim.Time(merged.Quantile(0.99)).Nanoseconds())
	sum.P999Ns = stats.Float(sim.Time(merged.Quantile(0.999)).Nanoseconds())
	return sum
}
