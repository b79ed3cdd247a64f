package core

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/workload"
)

func TestKernelQueueOverheadDominates(t *testing.T) {
	cfg := platform.Default()
	w := ubench(300)
	r := must(RunKernelQueue(cfg, w, 8, false))
	// Per access: 2 syscalls + doorbell + 2 kernel switches + interrupt
	// >> 1us; iteration time must be in the several-microsecond range.
	perIter := r.ElapsedSeconds / 300 * 1e9
	if perIter < 2000 {
		t.Errorf("kernelq iteration %.0fns, want dominated by kernel overheads (>2us)", perIter)
	}
	if r.Accesses != 300 {
		t.Errorf("accesses = %d", r.Accesses)
	}
	if r.WorkInstr != 300*workload.DefaultWorkCount {
		t.Errorf("work = %.0f", r.WorkInstr)
	}
}

func TestKernelQueueInterruptCoalescing(t *testing.T) {
	// More threads -> more in-flight -> completions coalesce into fewer
	// interrupts, so throughput improves somewhat with threads (but
	// never approaches the user-level mechanisms).
	cfg := platform.Default()
	w := ubench(400)
	one := must(RunKernelQueue(cfg, w, 1, false))
	eight := must(RunKernelQueue(cfg, w, 8, false))
	if eight.WorkIPS() <= one.WorkIPS() {
		t.Errorf("kernelq gained nothing from threads: %.3g -> %.3g", one.WorkIPS(), eight.WorkIPS())
	}
	pf := must(RunPrefetch(cfg, w, 8, false))
	if eight.WorkIPS() > pf.WorkIPS()/5 {
		t.Errorf("kernelq (%.3g) implausibly close to prefetch (%.3g)", eight.WorkIPS(), pf.WorkIPS())
	}
}

func TestSMTScalesWithContexts(t *testing.T) {
	cfg := platform.Default()
	w := ubench(600)
	var prev float64
	for _, contexts := range []int{1, 2, 4} {
		c := cfg
		c.SMTContexts = contexts
		r := must(RunSMT(c, w))
		if r.WorkIPS() <= prev {
			t.Errorf("SMT-%d (%.3g) not above SMT with fewer contexts (%.3g)", contexts, r.WorkIPS(), prev)
		}
		prev = r.WorkIPS()
	}
}

func TestPrefetchWritesDoNotYield(t *testing.T) {
	// A write-only inner loop must not cost context switches: with one
	// thread, switches stay zero even with writes present.
	cfg := platform.Default()
	wl := workload.NewMicrobenchRW(200, workload.DefaultWorkCount, 1, 4)
	r := must(RunPrefetch(cfg, wl, 1, false))
	if r.Diag.Switches != 0 {
		t.Errorf("switches = %d; posted writes must not yield", r.Diag.Switches)
	}
	if r.Diag.Writes != 800 {
		t.Errorf("writes = %d", r.Diag.Writes)
	}
}

func TestPrefetchWritesNearlyFree(t *testing.T) {
	cfg := platform.Default()
	ro := workload.NewMicrobench(1000, workload.DefaultWorkCount, 1)
	rw := workload.NewMicrobenchRW(1000, workload.DefaultWorkCount, 1, 2)
	a := must(RunPrefetch(cfg, ro, 10, false))
	b := must(RunPrefetch(cfg, rw, 10, false))
	if b.ElapsedSeconds > a.ElapsedSeconds*1.05 {
		t.Errorf("2 posted writes/iter cost %.1f%%, want <5%%",
			(b.ElapsedSeconds/a.ElapsedSeconds-1)*100)
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	// A tiny store buffer with a slow link forces write stalls: elapsed
	// grows well past the read-only run.
	cfg := platform.Default()
	cfg.StoreBufferEntries = 1
	cfg.PCIeBandwidth = 1e8 // 100 MB/s: 880ns per 64B TLP
	ro := workload.NewMicrobench(200, workload.DefaultWorkCount, 1)
	rw := workload.NewMicrobenchRW(200, workload.DefaultWorkCount, 1, 2)
	a := must(RunPrefetch(cfg, ro, 4, false))
	b := must(RunPrefetch(cfg, rw, 4, false))
	if b.ElapsedSeconds < a.ElapsedSeconds*1.5 {
		t.Errorf("no store-buffer backpressure: %.3g vs %.3g", a.ElapsedSeconds, b.ElapsedSeconds)
	}
}

func TestSWQWriteCompletionsDiscarded(t *testing.T) {
	// Write completions must not wake or corrupt reading threads.
	cfg := platform.Default()
	wl := workload.NewMicrobenchRW(300, workload.DefaultWorkCount, 2, 2)
	r := must(RunSWQueue(cfg, wl, 6, false))
	if r.Accesses != 600 || r.Diag.Writes != 600 {
		t.Errorf("accesses=%d writes=%d, want 600/600", r.Accesses, r.Diag.Writes)
	}
	if r.WorkInstr != 300*workload.DefaultWorkCount {
		t.Errorf("work = %.0f", r.WorkInstr)
	}
}

func TestPointerChaseUnderMechanisms(t *testing.T) {
	cfg := platform.Default()
	const work = 50 // short enough that the window would find MLP
	chase := workload.NewPointerChase(512, 400, work)
	base := must(RunDRAMBaseline(cfg, chase))
	// Dependent chain: the DRAM baseline is latency-bound (~DRAM
	// latency per hop) — markedly slower than the same loop with
	// independent addresses, where the window overlaps iterations.
	perHop := base.ElapsedSeconds / 400 * 1e9
	if perHop < 75 {
		t.Errorf("chase baseline %.0fns/hop; dependent loads should expose full DRAM latency", perHop)
	}
	indep := must(RunDRAMBaseline(cfg, workload.NewMicrobench(400, work, 1)))
	if base.ElapsedSeconds < indep.ElapsedSeconds*13/10 {
		t.Errorf("chase baseline (%.3g) not clearly slower than independent (%.3g)",
			base.ElapsedSeconds, indep.ElapsedSeconds)
	}

	chase.Reset()
	od := must(RunOnDemandDevice(cfg, chase))
	if n := od.NormalizedTo(base.Measurement); n > 0.15 {
		t.Errorf("on-demand chase normalized %.3f, want crushed", n)
	}

	chase.Reset()
	pf := must(RunPrefetch(cfg, chase, 10, true))
	if n := pf.NormalizedTo(base.Measurement); n < 0.6 {
		t.Errorf("10-thread prefetch chase normalized %.3f, want restored (>0.6)", n)
	}
	if pf.Diag.OnDemand != 0 {
		t.Errorf("chase replay misses: %d (data-dependent addresses diverged)", pf.Diag.OnDemand)
	}
	if chase.Hops != 400 {
		t.Errorf("hops = %d, want the one pass complete", chase.Hops)
	}
}
