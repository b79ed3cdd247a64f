package cluster

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

func quickCfg() Config {
	return Config{
		Base:       platform.Default(),
		Instances:  4,
		Mech:       "prefetch",
		Policy:     PolicyRoundRobin,
		Shape:      ShapePoisson,
		Workers:    16,
		ValueLines: 4,
		WorkInstr:  100,
		Items:      1024,
		Requests:   400,
		RatePerSec: 1e6,
		Seed:       1,
	}
}

func TestRunCompletesEverything(t *testing.T) {
	sum, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Arrived != 400 || sum.Completed != 400 {
		t.Fatalf("arrived=%d completed=%d, want 400/400", sum.Arrived, sum.Completed)
	}
	if err := sum.Validate(); err != nil {
		t.Fatal(err)
	}
	if sum.P99Ns <= 0 || sum.P50Ns <= 0 {
		t.Fatalf("degenerate percentiles: p50=%g p99=%g", sum.P50Ns, sum.P99Ns)
	}
	if sum.P50Ns > sum.P99Ns || sum.P99Ns > sum.P999Ns {
		t.Fatalf("percentiles out of order: %g / %g / %g", sum.P50Ns, sum.P99Ns, sum.P999Ns)
	}
	if sum.CompletedPerSec <= 0 {
		t.Fatalf("completion rate %g", sum.CompletedPerSec)
	}
}

// Same config, same seed: the summary must be identical down to the
// last float — the property that lets fleet cells ride the
// content-addressed cache and the parallel executor.
func TestRunDeterministic(t *testing.T) {
	for _, policy := range Policies() {
		cfg := quickCfg()
		cfg.Policy = policy
		cfg.Requests = 200
		a, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two identical runs diverged:\n%+v\n%+v", policy, a, b)
		}
	}
}

func TestSeedChangesTimeline(t *testing.T) {
	cfg := quickCfg()
	cfg.Requests = 200
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical summaries")
	}
}

func TestEveryMechAndShapeRuns(t *testing.T) {
	for _, mech := range []string{"prefetch", "swqueue", "ondemand"} {
		for _, shape := range []string{ShapePoisson, ShapeBursty, ShapeSaturate} {
			cfg := quickCfg()
			cfg.Mech = mech
			cfg.Shape = shape
			cfg.Requests = 120
			sum, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", mech, shape, err)
			}
			if sum.Completed != uint64(cfg.Requests) {
				t.Fatalf("%s/%s: completed %d of %d", mech, shape, sum.Completed, cfg.Requests)
			}
			if err := sum.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", mech, shape, err)
			}
		}
	}
}

func TestRoundRobinSpreadsEvenly(t *testing.T) {
	cfg := quickCfg()
	cfg.Requests = 400
	sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range sum.Instances {
		if in.Arrived != 100 {
			t.Fatalf("instance %d got %d arrivals, want 100", i, in.Arrived)
		}
	}
}

func TestKeyAffinityIsSticky(t *testing.T) {
	// With one item every request carries the same key, so affinity
	// routing must send the whole stream to a single instance.
	cfg := quickCfg()
	cfg.Policy = PolicyKeyAffinity
	cfg.Items = 1
	cfg.Requests = 100
	sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, in := range sum.Instances {
		if in.Arrived > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("affinity spread one key over %d instances", nonEmpty)
	}
}

// A queue-weighted decision runs on every arrival, so it must not
// allocate. The instances carry different backlogs, so their weights
// differ.
func TestQueueWeightedPickDoesNotAllocate(t *testing.T) {
	cfg := quickCfg()
	cfg.Policy = PolicyQueueWeighted
	backing := workload.NewMemcached(cfg.Items, cfg.ValueLines, 1, 1).Backing()
	insts := make([]*instance, cfg.Instances)
	for i := range insts {
		env := core.NewEnv(cfg.Base, backing)
		srv, err := core.NewServer(env, core.ServerConfig{Mech: cfg.Mech, Workers: 1, ValueLines: cfg.ValueLines})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3*i; k++ {
			srv.Submit(uint64(k))
		}
		insts[i] = &instance{env: env, srv: srv}
	}
	rt, err := newRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { rt.pick(insts, 7) }); n != 0 {
		t.Fatalf("queue-weighted pick allocates %v times per call", n)
	}
}

// Past the saturation point the windows must say so: a saturate-shape
// run offers the whole batch at once, so every instance should flag
// saturated windows, while a gentle poisson trickle should flag none.
func TestSaturationDetection(t *testing.T) {
	cfg := quickCfg()
	cfg.Shape = ShapeSaturate
	cfg.Requests = 2000
	sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range sum.Instances {
		if in.SaturatedWindows == 0 {
			t.Fatalf("instance %d: no saturated windows under a full-batch offer", i)
		}
	}

	cfg = quickCfg()
	cfg.RatePerSec = 1e5 // ~10us between arrivals: far below capacity
	cfg.Requests = 200
	sum, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range sum.Instances {
		if in.SaturatedWindows != 0 {
			t.Fatalf("instance %d: %d saturated windows at 10%% load", i, in.SaturatedWindows)
		}
	}
}

// Near saturation with heterogeneous request sizes, least-outstanding
// must beat round-robin's tail: the adaptive policy steers around the
// instance that drew a run of fat values while the static rotation
// keeps feeding it.
func TestLeastOutstandingBeatsRoundRobinTail(t *testing.T) {
	base := quickCfg()
	base.ValueSkew = true
	base.Requests = 3000
	base.RatePerSec = 0.9 * 9.33e6 // rho = 0.9 of the measured fleet capacity

	rr := base
	rr.Policy = PolicyRoundRobin
	rrSum, err := Run(rr)
	if err != nil {
		t.Fatal(err)
	}
	lo := base
	lo.Policy = PolicyLeastOutstanding
	loSum, err := Run(lo)
	if err != nil {
		t.Fatal(err)
	}
	if loSum.P99Ns >= rrSum.P99Ns {
		t.Fatalf("least-outstanding p99 %.0fns not better than round-robin %.0fns",
			loSum.P99Ns, rrSum.P99Ns)
	}
}

// The bursty shape preserves the mean offered rate but compresses it
// into on-windows, so at the same rho its tail must be strictly worse
// than the memoryless stream's.
func TestBurstyFattensTail(t *testing.T) {
	base := quickCfg()
	base.ValueSkew = true
	base.Requests = 3000
	base.RatePerSec = 0.9 * 9.33e6

	po, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	b := base
	b.Shape = ShapeBursty
	bu, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if bu.P99Ns <= po.P99Ns {
		t.Fatalf("bursty p99 %.0fns not fatter than poisson %.0fns", bu.P99Ns, po.P99Ns)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Instances = 0 },
		func(c *Config) { c.Mech = "warp" },
		func(c *Config) { c.Policy = "psychic" },
		func(c *Config) { c.Shape = "square" },
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.ValueLines = 0 },
		func(c *Config) { c.Items = 0 },
		func(c *Config) { c.Requests = 0 },
		func(c *Config) { c.RatePerSec = 0 },
	}
	for i, mutate := range bad {
		cfg := quickCfg()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestBurstyKeepsCountAndOrder(t *testing.T) {
	cfg := quickCfg()
	cfg.Shape = ShapeBursty
	cfg = cfg.withDefaults()
	arr := generateArrivals(cfg)
	if len(arr) != cfg.Requests {
		t.Fatalf("got %d arrivals, want %d", len(arr), cfg.Requests)
	}
	for i := 1; i < len(arr); i++ {
		if arr[i].at < arr[i-1].at {
			t.Fatalf("arrival %d at %v precedes %d at %v", i, arr[i].at, i-1, arr[i-1].at)
		}
	}
	// every arrival must land inside an on-window
	on := sim.Time(float64(cfg.BurstPeriod) * cfg.BurstDuty)
	for i, a := range arr {
		if a.at%cfg.BurstPeriod >= on {
			t.Fatalf("arrival %d at %v lands in the off fraction", i, a.at)
		}
	}
}
