package core

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/workload"
)

func faultTestWorkload() Workload {
	return workload.NewMicrobench(60, workload.DefaultWorkCount, 2)
}

// A plan with a seed but every rate zero is disabled, so every mechanism
// must produce results bit-identical to a run with no plan at all — the
// injector must not perturb anything it does not actively break.
func TestZeroRatePlanIsBitIdentical(t *testing.T) {
	clean := platform.Default()
	zero := platform.Default()
	zero.Faults = fault.Plan{Seed: 7}

	type run func(cfg platform.Config) (Result, error)
	runs := map[string]run{
		"ondemand": func(cfg platform.Config) (Result, error) { return RunOnDemandDevice(cfg, faultTestWorkload()) },
		"prefetch": func(cfg platform.Config) (Result, error) { return RunPrefetch(cfg, faultTestWorkload(), 8, false) },
		"swqueue":  func(cfg platform.Config) (Result, error) { return RunSWQueue(cfg, faultTestWorkload(), 8, false) },
		"kernelq":  func(cfg platform.Config) (Result, error) { return RunKernelQueue(cfg, faultTestWorkload(), 4, false) },
	}
	for name, r := range runs {
		a := must(r(clean))
		b := must(r(zero))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: zero-rate fault plan changed the result:\nclean: %+v\nzero:  %+v", name, a, b)
		}
	}
}

// At a 1%% completion-drop rate every mechanism must still complete the
// whole workload via timeout/retry — no hangs, no lost accesses — and
// surface the recovery in its diagnostics.
func TestDropRecoveryCompletesEveryMechanism(t *testing.T) {
	cfg := platform.Default()
	cfg.Faults = fault.Plan{Seed: 1, DropCompletionProb: 0.01}
	wl := faultTestWorkload()
	const wantAccesses = 60 * 2

	for name, r := range map[string]Result{
		"prefetch": must(RunPrefetch(cfg, wl, 8, false)),
		"swqueue":  must(RunSWQueue(cfg, wl, 8, false)),
		"kernelq":  must(RunKernelQueue(cfg, wl, 4, false)),
	} {
		if r.Accesses != wantAccesses {
			t.Errorf("%s: completed %d accesses, want %d", name, r.Accesses, wantAccesses)
		}
		if r.Diag.Faults.DroppedCompletions == 0 {
			t.Errorf("%s: injector dropped nothing at a 1%% rate", name)
		}
		if r.Diag.Retries == 0 || r.Diag.Timeouts == 0 {
			t.Errorf("%s: recovery invisible: retries=%d timeouts=%d", name, r.Diag.Retries, r.Diag.Timeouts)
		}
		if r.Diag.Abandoned != 0 {
			t.Errorf("%s: abandoned %d accesses; 1%% drops should never exhaust 4 retries", name, r.Diag.Abandoned)
		}
		if r.Measurement.Retries != r.Diag.Retries {
			t.Errorf("%s: Measurement.Retries %d != Diag.Retries %d", name, r.Measurement.Retries, r.Diag.Retries)
		}
	}
}

func TestOnDemandDropRecovery(t *testing.T) {
	cfg := platform.Default()
	wl := faultTestWorkload()
	clean := must(RunOnDemandDevice(cfg, wl))

	cfg.Faults = fault.Plan{Seed: 3, DropCompletionProb: 0.05}
	faulty := must(RunOnDemandDevice(cfg, wl))
	if faulty.Diag.Retries == 0 {
		t.Fatal("no retries at a 5% drop rate")
	}
	if faulty.ElapsedSeconds <= clean.ElapsedSeconds {
		t.Errorf("recovery made the run faster: %v <= %v", faulty.ElapsedSeconds, clean.ElapsedSeconds)
	}
	if faulty.Diag.AccessP999Ns <= faulty.Diag.AccessP50Ns {
		t.Errorf("p999 %.0fns not above p50 %.0fns despite timeouts", faulty.Diag.AccessP999Ns, faulty.Diag.AccessP50Ns)
	}
}

// Dropped doorbells park the request fetcher; the host's descriptor
// timeout must re-ring until one lands.
func TestDoorbellDropRecovery(t *testing.T) {
	cfg := platform.Default()
	cfg.Faults = fault.Plan{Seed: 2, DoorbellDropProb: 0.5}
	r := must(RunSWQueue(cfg, faultTestWorkload(), 8, false))
	if r.Accesses != 60*2 {
		t.Errorf("completed %d accesses, want %d", r.Accesses, 60*2)
	}
	if r.Diag.Faults.DroppedDoorbells == 0 {
		t.Error("no doorbells dropped at a 50% rate")
	}
	if r.Diag.Abandoned != 0 {
		t.Errorf("abandoned %d accesses", r.Diag.Abandoned)
	}
}

// A bounded completion queue makes the device defer posts until the
// host drains; the run must still complete, with backpressure counted.
func TestCQBackpressure(t *testing.T) {
	cfg := platform.Default()
	cfg.Faults = fault.Plan{Seed: 4, CQCapacity: 1}
	r := must(RunSWQueue(cfg, faultTestWorkload(), 8, false))
	if r.Accesses != 60*2 {
		t.Errorf("completed %d accesses, want %d", r.Accesses, 60*2)
	}
	if r.Diag.Faults.CQBackpressure == 0 {
		t.Error("no backpressure events with a 1-entry completion queue")
	}
}

// Stragglers past the access timeout retry under prefetch; duplicated
// responses must not double-release tokens or double-fire gates.
func TestStragglerAndDuplicateRecovery(t *testing.T) {
	cfg := platform.Default()
	cfg.Faults = fault.Plan{Seed: 5, StragglerProb: 0.02, StragglerFactor: 100, DuplicateProb: 0.05}
	r := must(RunPrefetch(cfg, faultTestWorkload(), 8, false))
	if r.Accesses != 60*2 {
		t.Errorf("completed %d accesses, want %d", r.Accesses, 60*2)
	}
	if r.Diag.Faults.Stragglers == 0 || r.Diag.Faults.Duplicates == 0 {
		t.Errorf("faults not injected: %+v", r.Diag.Faults)
	}
	if r.Diag.Timeouts == 0 {
		t.Error("100x stragglers never hit the 16x-latency timeout")
	}
}

// PCIe-layer faults slow packets but need no host recovery; the run
// completes with the faults counted and a longer elapsed time.
func TestPCIeFaultsSlowButComplete(t *testing.T) {
	clean := must(RunSWQueue(platform.Default(), faultTestWorkload(), 8, false))

	cfg := platform.Default()
	cfg.Faults = fault.Plan{Seed: 6, TLPCorruptProb: 0.05, LinkStallProb: 0.02}
	r := must(RunSWQueue(cfg, faultTestWorkload(), 8, false))
	if r.Accesses != 60*2 {
		t.Errorf("completed %d accesses, want %d", r.Accesses, 60*2)
	}
	if r.Diag.Faults.CorruptTLPs == 0 || r.Diag.Faults.LinkStalls == 0 {
		t.Errorf("PCIe faults not injected: %+v", r.Diag.Faults)
	}
	if r.ElapsedSeconds <= clean.ElapsedSeconds {
		t.Errorf("link replays/stalls made the run faster: %v <= %v", r.ElapsedSeconds, clean.ElapsedSeconds)
	}
}

// The same seed must reproduce a faulty run exactly; a different seed
// should generally not (spot check, not a property of every pair).
func TestFaultRunsAreSeedDeterministic(t *testing.T) {
	cfg := platform.Default()
	cfg.Faults = fault.Plan{Seed: 11, DropCompletionProb: 0.02, StragglerProb: 0.02}
	a := must(RunPrefetch(cfg, faultTestWorkload(), 8, false))
	b := must(RunPrefetch(cfg, faultTestWorkload(), 8, false))
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different results")
	}
	cfg.Faults.Seed = 12
	c := must(RunPrefetch(cfg, faultTestWorkload(), 8, false))
	if reflect.DeepEqual(a.Measurement, c.Measurement) && reflect.DeepEqual(a.Diag.Faults, c.Diag.Faults) {
		t.Error("different seeds produced identical fault draws (suspicious)")
	}
}

// An abandoned prefetch line lands zero-filled but is never cached: a
// later lookup must go back to the device rather than hit a line the
// device never sent. Every completion is dropped and there are no
// retries, so every access is abandoned and none may ever hit.
func TestAbandonedLinesStayOutOfCache(t *testing.T) {
	cfg := platform.Default()
	cfg.DeviceCacheLines = 1 << 14 // big enough to hold the whole filter
	cfg.Faults = fault.Plan{Seed: 3, DropCompletionProb: 1}
	cfg.MaxRetries = 0
	bloom := workload.NewBloom(1<<15, 4, 128, 600, workload.DefaultWorkCount)
	r := must(RunPrefetch(cfg, bloom, 4, false))
	if r.Accesses != 600*4 || r.Diag.Abandoned != uint64(r.Accesses) {
		t.Errorf("abandoned %d of %d accesses, want all %d probes", r.Diag.Abandoned, r.Accesses, 600*4)
	}
	if r.Diag.CacheHits != 0 {
		t.Errorf("%d cache hits on lines that were only ever abandoned", r.Diag.CacheHits)
	}
}
