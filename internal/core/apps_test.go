package core

// Integration tests: the three applications of §IV-C running end-to-end
// under both threaded mechanisms, with the two-run record/replay
// methodology, verifying both functional correctness (the apps compute
// the right answers through the simulated device) and the performance
// trends of Fig 10.

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestBloomUnderPrefetchWithReplay(t *testing.T) {
	b := workload.NewBloom(1<<16, 4, 300, 400, workload.DefaultWorkCount)
	cfg := platform.Default()
	r := must(RunPrefetch(cfg, b, 3, true))
	// Two passes ran (recording + measured): counters doubled.
	if b.Lookups != 2*400 {
		t.Fatalf("lookups = %d, want 800 over two passes", b.Lookups)
	}
	if b.Positives != 2*b.ReferencePositives() {
		t.Errorf("positives %d != 2x reference %d", b.Positives, b.ReferencePositives())
	}
	if r.Diag.OnDemand != 0 {
		t.Errorf("%d replay misses", r.Diag.OnDemand)
	}
	if r.Accesses != 1600 {
		t.Errorf("accesses = %d, want 1600", r.Accesses)
	}
}

func TestMemcachedUnderSWQWithReplay(t *testing.T) {
	m := workload.NewMemcached(128, 4, 300, workload.DefaultWorkCount)
	cfg := platform.Default()
	r := must(RunSWQueue(cfg, m, 4, true))
	if m.Lookups != 2*300 || m.BadValues != 0 {
		t.Fatalf("lookups=%d bad=%d, want 600 clean lookups", m.Lookups, m.BadValues)
	}
	if m.Hits != m.Lookups {
		t.Errorf("hits = %d, want all %d", m.Hits, m.Lookups)
	}
	if r.Diag.OnDemand != 0 {
		t.Errorf("%d replay misses", r.Diag.OnDemand)
	}
}

func TestBFSUnderPrefetchWithReplay(t *testing.T) {
	g := workload.NewKronecker(8, 8, 3)
	b := workload.NewBFS(g, []int{1, 2, 3, 4}, 30, workload.DefaultWorkCount)
	cfg := platform.Default()
	r := must(RunPrefetch(cfg, b, 2, true))
	if b.Visited != 2*b.ExpectedVisitsPerCore() {
		t.Errorf("visited %d != 2x expected %d — device data corrupted the traversal",
			b.Visited, b.ExpectedVisitsPerCore())
	}
	if r.Diag.OnDemand != 0 {
		t.Errorf("%d replay misses: recorded sequence diverged", r.Diag.OnDemand)
	}
	if r.Diag.ReplayServed == 0 {
		t.Error("nothing served via replay")
	}
}

func TestBFSMulticoreReplay(t *testing.T) {
	g := workload.NewKronecker(7, 8, 5)
	b := workload.NewBFS(g, []int{1, 2}, 20, workload.DefaultWorkCount)
	cfg := platform.Default().WithCores(2)
	r := must(RunSWQueue(cfg, b, 2, true))
	// 2 cores x 2 passes.
	if b.Visited != 4*b.ExpectedVisitsPerCore() {
		t.Errorf("visited %d != 4x expected %d", b.Visited, b.ExpectedVisitsPerCore())
	}
	if r.Diag.OnDemand != 0 {
		t.Errorf("%d replay misses across cores", r.Diag.OnDemand)
	}
}

func TestFig10AppTrends(t *testing.T) {
	// Single-core, 1us, batched apps (Fig 10a/10b): prefetch reaches
	// decent fractions of DRAM before the LFB limit; SWQ is lower at
	// equal thread counts ("prefetch ... between 35% to 65% of the DRAM
	// baseline ... application-managed queues only reach 20% to 50%").
	cfg := platform.Default()
	m := workload.NewMemcached(128, 4, 600, workload.DefaultWorkCount)
	base := must(RunDRAMBaseline(cfg, m))

	// Prefetch at its LFB-limited peak (3 threads x 4 reads covers the
	// 10 LFBs): the lower end of the paper's 35-65% band.
	pf3 := must(RunPrefetch(cfg, m, 3, false))
	npf := pf3.NormalizedTo(base.Measurement)
	if npf < 0.3 || npf > 0.7 {
		t.Errorf("memcached prefetch peak normalized %.3f, want 0.35-0.65 band", npf)
	}

	// SWQ at equal (low) threads trails prefetch: queue-management
	// overhead with no compensating parallelism.
	swq3 := must(RunSWQueue(cfg, m, 3, false))
	if n := swq3.NormalizedTo(base.Measurement); n >= npf {
		t.Errorf("SWQ (%.3f) should trail prefetch (%.3f) at equal threads on one core", n, npf)
	}

	// Even saturated, single-core SWQ stays at/below the prefetch peak
	// (paper: 20-50% vs 35-65%).
	swq16 := must(RunSWQueue(cfg, m, 16, false))
	nswq := swq16.NormalizedTo(base.Measurement)
	if nswq < 0.2 || nswq > 0.55 {
		t.Errorf("saturated single-core SWQ normalized %.3f, want the paper's 20-50%% band", nswq)
	}
	if nswq > npf {
		t.Errorf("single-core SWQ (%.3f) should not exceed the prefetch peak (%.3f)", nswq, npf)
	}
}

func TestSpuriousRequestDuringReplayRun(t *testing.T) {
	// Emulate a wrong-path speculative access arriving mid-run (§IV-A):
	// the on-demand module must absorb it without disturbing the
	// recorded sequence or the workload's results.
	m := workload.NewMemcached(64, 4, 200, workload.DefaultWorkCount)
	cfg := platform.Default()

	// Recording pass.
	recEnv := NewEnv(cfg, m.Backing())
	recEnv.dev.EnableRecording(0)
	if err := launch(recEnv, m, 4, runPrefetchCore); err != nil {
		t.Fatal(err)
	}

	// Measured pass with an injected spurious read at 5us.
	e := NewEnv(cfg, m.Backing())
	if err := e.dev.LoadRecording(0, recEnv.dev.TakeRecording(0), 0); err != nil {
		t.Fatal(err)
	}
	e.eng.At(5*sim.Microsecond, func() {
		e.dev.MMIORead(0, 0xDEAD0000, trace.Span{}, nil, func([]byte) {})
	})
	m.Reset()
	if err := launch(e, m, 4, runPrefetchCore); err != nil {
		t.Fatal(err)
	}
	diag := e.diagnostics()

	if diag.OnDemand != 1 {
		t.Errorf("on-demand served %d, want exactly the spurious request", diag.OnDemand)
	}
	if m.BadValues != 0 || m.Hits != 200 {
		t.Errorf("spurious request corrupted lookups: hits=%d bad=%d", m.Hits, m.BadValues)
	}
	if e.c.accesses != 800 {
		t.Errorf("accesses = %d", e.c.accesses)
	}
}

func TestAppBaselineFindsMLP(t *testing.T) {
	// Fig 10's DRAM baselines exploit the apps' inherent MLP: the
	// 4-read memcached baseline is much faster per lookup than 4
	// dependent accesses would be.
	cfg := platform.Default()
	m := workload.NewMemcached(128, 4, 1000, workload.DefaultWorkCount)
	base := must(RunDRAMBaseline(cfg, m))
	perLookup := base.ElapsedSeconds / 1000 * 1e9
	// 4 parallel DRAM reads + work ~= 83ns-145ns; 4 serial would be
	// >380ns.
	if perLookup > 250 {
		t.Errorf("baseline lookup %.0fns: window found no MLP", perLookup)
	}
}
