package repro_test

// Facade-level tests: the public API exposed to library users, exercised
// the way the examples use it.

import (
	"testing"

	"repro"
)

func TestFacadeHeadlineResult(t *testing.T) {
	cfg := repro.DefaultConfig()
	ub := repro.NewMicrobench(1500, repro.DefaultWorkCount, 1)
	base := must(repro.RunDRAMBaseline(cfg, ub))

	od := must(repro.RunOnDemandDevice(cfg, ub))
	if n := od.NormalizedTo(base.Measurement); n > 0.15 {
		t.Errorf("on-demand normalized %.3f, want the killer microsecond", n)
	}

	pf := must(repro.RunPrefetch(cfg, ub, 10, false))
	if n := pf.NormalizedTo(base.Measurement); n < 0.8 {
		t.Errorf("10-thread prefetch normalized %.3f, want near DRAM", n)
	}
	if pf.Diag.MaxLFB != 10 {
		t.Errorf("MaxLFB = %d", pf.Diag.MaxLFB)
	}
}

func TestFacadeMechanismOrdering(t *testing.T) {
	cfg := repro.DefaultConfig()
	ub := repro.NewMicrobench(800, repro.DefaultWorkCount, 1)
	base := must(repro.RunDRAMBaseline(cfg, ub))
	pf := must(repro.RunPrefetch(cfg, ub, 10, false)).NormalizedTo(base.Measurement)
	sq := must(repro.RunSWQueue(cfg, ub, 10, false)).NormalizedTo(base.Measurement)
	kq := must(repro.RunKernelQueue(cfg, ub, 10, false)).NormalizedTo(base.Measurement)
	smt := must(repro.RunSMT(cfg, ub)).NormalizedTo(base.Measurement)
	if !(pf > sq && sq > smt && smt > kq) {
		t.Errorf("ordering pf=%.3f > sq=%.3f > smt=%.3f > kq=%.3f violated", pf, sq, smt, kq)
	}
}

func TestFacadeApplications(t *testing.T) {
	cfg := repro.DefaultConfig()
	g := repro.NewKronecker(7, 8, 1)
	bfs := repro.NewBFS(g, []int{1, 2}, 16, repro.DefaultWorkCount)
	r := must(repro.RunPrefetch(cfg, bfs, 2, true))
	if r.Diag.OnDemand != 0 {
		t.Errorf("BFS replay misses: %d", r.Diag.OnDemand)
	}

	// Without a fault plan the measured run records its own sequence:
	// the workload runs one pass, so Lookups matches Accesses.
	bloom := repro.NewBloom(1<<14, 4, 100, 80, repro.DefaultWorkCount)
	if r := must(repro.RunSWQueue(cfg, bloom, 4, true)); r.Accesses != 80*4 {
		t.Errorf("bloom accesses = %d", r.Accesses)
	}
	if bloom.Lookups != 80 {
		t.Errorf("bloom lookups = %d, want one pass of 80", bloom.Lookups)
	}

	mc := repro.NewMemcached(64, 4, 80, repro.DefaultWorkCount)
	if r := must(repro.RunSWQueue(cfg, mc, 4, false)); r.Accesses != 80*4 {
		t.Errorf("memcached accesses = %d", r.Accesses)
	}
}

func TestFacadeWritesAndConfigKnobs(t *testing.T) {
	cfg := repro.DefaultConfig().WithLatency(2 * repro.Microsecond).WithCores(2)
	rw := repro.NewMicrobenchRW(400, repro.DefaultWorkCount, 1, 2)
	r := must(repro.RunPrefetch(cfg, rw, 4, false))
	if r.Diag.Writes != 2*800 {
		t.Errorf("writes = %d, want 1600 (2 cores)", r.Diag.Writes)
	}
	mem := cfg.AsMemBus()
	if mem.ChipQueueMMIO <= cfg.ChipQueueMMIO {
		t.Error("AsMemBus did not widen the shared queue")
	}
}

func TestFacadeSuites(t *testing.T) {
	q := repro.QuickSuite()
	if q.Iterations >= repro.DefaultSuite().Iterations {
		t.Error("quick suite not smaller than default")
	}
	q.Iterations = 300
	q.Threads = []int{1, 8}
	tb := q.Fig3()
	if tb.ID != "fig3" || len(tb.Series) != 3 {
		t.Errorf("fig3 table malformed: %s with %d series", tb.ID, len(tb.Series))
	}
}

// must unwraps a run result inside tests, where a run error is a bug.
func must(r repro.Result, err error) repro.Result {
	if err != nil {
		panic(err)
	}
	return r
}
