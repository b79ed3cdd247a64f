package core

import (
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

const testIters = 2000

func ubench(iters int) Workload {
	return workload.NewMicrobench(iters, workload.DefaultWorkCount, 1)
}

func TestDRAMBaselineSanity(t *testing.T) {
	cfg := platform.Default()
	r := must(RunDRAMBaseline(cfg, ubench(testIters)))
	iter := r.IterationTime() * 1e9
	// Calibrated: ~83ns per iteration (work 62ns + exposed DRAM).
	if iter < 70 || iter > 100 {
		t.Errorf("baseline iteration %.1fns, want ~83ns", iter)
	}
	if r.Accesses != testIters {
		t.Errorf("accesses = %d", r.Accesses)
	}
	if !strings.Contains(r.Label, "dram-baseline") {
		t.Errorf("label = %q", r.Label)
	}
}

func TestOnDemandDeviceAbysmal(t *testing.T) {
	// Fig 2: on-demand microsecond access is far below DRAM at moderate
	// work counts.
	cfg := platform.Default()
	w := ubench(testIters)
	base := must(RunDRAMBaseline(cfg, w))
	dev := must(RunOnDemandDevice(cfg, w))
	norm := dev.NormalizedTo(base.Measurement)
	if norm > 0.15 {
		t.Errorf("on-demand normalized %.3f, want abysmal (<0.15)", norm)
	}
}

func TestPrefetchSingleThreadVsTen(t *testing.T) {
	// Fig 3 at 1us: performance rises with threads and approaches the
	// DRAM baseline around 10 threads.
	cfg := platform.Default()
	w := ubench(testIters)
	base := must(RunDRAMBaseline(cfg, w))

	one := must(RunPrefetch(cfg, w, 1, false))
	ten := must(RunPrefetch(cfg, w, 10, false))
	n1 := one.NormalizedTo(base.Measurement)
	n10 := ten.NormalizedTo(base.Measurement)
	if n1 > 0.2 {
		t.Errorf("1-thread prefetch normalized %.3f, want small", n1)
	}
	if n10 < 0.7 || n10 > 1.2 {
		t.Errorf("10-thread prefetch normalized %.3f, want near DRAM (~0.8-1.0)", n10)
	}
	if n10 <= n1 {
		t.Errorf("no thread scaling: %.3f -> %.3f", n1, n10)
	}
}

func TestPrefetchLFBCeiling(t *testing.T) {
	// Fig 3: "after reaching 10 threads, additional threads do not
	// improve performance" — the 10-LFB limit.
	cfg := platform.Default().WithLatency(4 * sim.Microsecond)
	w := ubench(testIters)
	ten := must(RunPrefetch(cfg, w, 10, false))
	sixteen := must(RunPrefetch(cfg, w, 16, false))
	gain := sixteen.WorkIPS() / ten.WorkIPS()
	if gain > 1.05 {
		t.Errorf("16 threads improved over 10 by %.2fx despite LFB limit", gain)
	}
	if ten.Diag.MaxLFB != 10 {
		t.Errorf("max LFB occupancy %d, want 10", ten.Diag.MaxLFB)
	}
	if sixteen.Diag.LFBStalls == 0 {
		t.Error("16 threads at 4us never stalled on LFBs")
	}
}

func TestPrefetchMulticoreChipQueueCeiling(t *testing.T) {
	// Fig 5: cores aggregate until the 14-entry chip-level queue binds.
	cfg := platform.Default().WithLatency(4 * sim.Microsecond).WithCores(4)
	w := ubench(800)
	r := must(RunPrefetch(cfg, w, 10, false))
	if r.Diag.MaxChipQueue != 14 {
		t.Errorf("max chip-queue occupancy %d, want 14 (§V-B)", r.Diag.MaxChipQueue)
	}
	if r.Diag.ChipStalls == 0 {
		t.Error("4 cores x 10 threads at 4us never stalled on the chip queue")
	}

	// And the ceiling limits throughput: 8 cores do no better than ~14
	// in-flight accesses allow.
	cfg8 := cfg.WithCores(8)
	r8 := must(RunPrefetch(cfg8, w, 10, false))
	maxRate := 14.0 / (4e-6) // Little's law: 14 in flight / 4us
	rate := float64(r8.Accesses) / r8.ElapsedSeconds
	if rate > maxRate*1.05 {
		t.Errorf("8-core access rate %.3g/s exceeds chip-queue bound %.3g/s", rate, maxRate)
	}
}

func TestPrefetchMLPConsumesLFBs(t *testing.T) {
	// Fig 6: the 4-read variant saturates around 3 threads; extra
	// threads add nothing because 10 LFBs serve only ~2.5 batches.
	cfg := platform.Default()
	w4 := workload.NewMicrobench(testIters, workload.DefaultWorkCount, 4)
	three := must(RunPrefetch(cfg, w4, 3, false))
	eight := must(RunPrefetch(cfg, w4, 8, false))
	gain := eight.WorkIPS() / three.WorkIPS()
	if gain > 1.10 {
		t.Errorf("4-read: 8 threads over 3 threads = %.2fx, want flat (LFB-bound)", gain)
	}
}

func TestSWQPeakAndScalingPastLFBLimit(t *testing.T) {
	cfg := platform.Default().WithLatency(4 * sim.Microsecond)
	w := ubench(testIters)
	base := must(RunDRAMBaseline(cfg, w))

	// Fig 7 at 4us: SWQ keeps gaining beyond 10 threads (no hardware
	// queue limit) while prefetch is stuck at its LFB ceiling.
	swq10 := must(RunSWQueue(cfg, w, 10, false))
	swq24 := must(RunSWQueue(cfg, w, 24, false))
	if swq24.WorkIPS() <= swq10.WorkIPS()*1.3 {
		t.Errorf("SWQ did not scale past 10 threads: %.3g -> %.3g",
			swq10.WorkIPS(), swq24.WorkIPS())
	}
	pf24 := must(RunPrefetch(cfg, w, 24, false))
	if swq24.WorkIPS() <= pf24.WorkIPS() {
		t.Errorf("at 4us/24 threads SWQ (%.3g) should beat LFB-capped prefetch (%.3g)",
			swq24.WorkIPS(), pf24.WorkIPS())
	}

	// Queue-management overhead caps the peak at ~50% of DRAM (§V-C).
	norm := swq24.NormalizedTo(base.Measurement)
	if norm < 0.35 || norm > 0.65 {
		t.Errorf("SWQ peak normalized %.3f, want ~0.5", norm)
	}
}

func TestSWQDoorbellsAreRare(t *testing.T) {
	// The doorbell-request flag keeps the fetcher running: with many
	// threads continuously submitting, doorbells are a tiny fraction of
	// accesses (§III-A).
	cfg := platform.Default()
	w := ubench(testIters)
	r := must(RunSWQueue(cfg, w, 16, false))
	if r.Accesses != testIters {
		t.Fatalf("accesses = %d, want %d", r.Accesses, testIters)
	}
}

func TestMulticoreSWQLinearThenBandwidth(t *testing.T) {
	// Fig 8: SWQ scales ~linearly in cores until the PCIe request-rate
	// wall, where only ~half the link carries useful data (§V-C).
	w := ubench(600)
	cfg1 := platform.Default()
	cfg4 := cfg1.WithCores(4)
	r1 := must(RunSWQueue(cfg1, w, 24, false))
	r4 := must(RunSWQueue(cfg4, w, 24, false))
	scale := r4.WorkIPS() / r1.WorkIPS()
	if scale < 3.0 {
		t.Errorf("4-core SWQ scaling %.2fx, want near-linear (>3x)", scale)
	}
	cfg8 := cfg1.WithCores(8)
	r8 := must(RunSWQueue(cfg8, w, 24, false))
	if r8.Diag.UpstreamUseful > 0.62 {
		t.Errorf("upstream useful fraction %.2f, want ~0.5 from protocol overhead", r8.Diag.UpstreamUseful)
	}
}

func TestReplayMethodologyMatchesBackingMode(t *testing.T) {
	// The record/replay methodology must reproduce the direct
	// (backing-served) timing: replay is a fidelity mechanism, not a
	// performance effect.
	cfg := platform.Default()
	w := ubench(500)
	direct := must(RunPrefetch(cfg, w, 8, false))
	replayed := must(RunPrefetch(cfg, w, 8, true))
	if direct.ElapsedSeconds != replayed.ElapsedSeconds {
		t.Errorf("replay changed timing: %.9g vs %.9g",
			direct.ElapsedSeconds, replayed.ElapsedSeconds)
	}
	if replayed.Diag.OnDemand != 0 {
		t.Errorf("%d requests leaked to the on-demand module during replay", replayed.Diag.OnDemand)
	}
	if replayed.Diag.ReplayServed == 0 {
		t.Error("replay served nothing")
	}
}

func TestReplaySWQDeterministic(t *testing.T) {
	cfg := platform.Default()
	w := ubench(400)
	direct := must(RunSWQueue(cfg, w, 6, false))
	replayed := must(RunSWQueue(cfg, w, 6, true))
	if direct.ElapsedSeconds != replayed.ElapsedSeconds {
		t.Errorf("SWQ replay changed timing: %.9g vs %.9g",
			direct.ElapsedSeconds, replayed.ElapsedSeconds)
	}
	if replayed.Diag.OnDemand != 0 {
		t.Errorf("%d SWQ requests missed replay", replayed.Diag.OnDemand)
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	cfg := platform.Default().WithCores(2)
	w := ubench(500)
	a := must(RunPrefetch(cfg, w, 5, false))
	b := must(RunPrefetch(cfg, w, 5, false))
	if a.ElapsedSeconds != b.ElapsedSeconds || a.Accesses != b.Accesses {
		t.Errorf("nondeterministic: %+v vs %+v", a.Measurement, b.Measurement)
	}
	s1 := must(RunSWQueue(cfg, w, 5, false))
	s2 := must(RunSWQueue(cfg, w, 5, false))
	if s1.ElapsedSeconds != s2.ElapsedSeconds {
		t.Errorf("SWQ nondeterministic: %v vs %v", s1.ElapsedSeconds, s2.ElapsedSeconds)
	}
}

func TestAllWorkRetired(t *testing.T) {
	cfg := platform.Default()
	w := ubench(1000)
	wantWork := float64(1000 * workload.DefaultWorkCount)
	for _, r := range []Result{
		must(RunPrefetch(cfg, w, 7, false)),
		must(RunSWQueue(cfg, w, 7, false)),
	} {
		if r.WorkInstr != wantWork {
			t.Errorf("%s retired %.0f work instr, want %.0f", r.Label, r.WorkInstr, wantWork)
		}
		if r.Accesses != 1000 {
			t.Errorf("%s accesses = %d", r.Label, r.Accesses)
		}
	}
}

func TestMoreThreadsThanIterations(t *testing.T) {
	// Threads beyond the per-core iteration budget run zero iterations
	// and must terminate cleanly under every mechanism.
	cfg := platform.Default()
	w := ubench(5)
	for _, r := range []Result{
		must(RunPrefetch(cfg, w, 12, false)),
		must(RunSWQueue(cfg, w, 12, false)),
		must(RunKernelQueue(cfg, w, 12, false)),
	} {
		if r.Accesses != 5 {
			t.Errorf("%s: accesses = %d, want 5", r.Label, r.Accesses)
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid config did not panic")
		}
	}()
	cfg := platform.Default()
	cfg.LFBPerCore = 0
	must(RunPrefetch(cfg, ubench(10), 1, false))
}

func TestZeroThreadsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero threads did not panic")
		}
	}()
	must(RunPrefetch(platform.Default(), ubench(10), 0, false))
}

// must unwraps a run result inside tests, where a run error is a bug.
func must(r Result, err error) Result {
	if err != nil {
		panic(err)
	}
	return r
}
