package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ExpKernelQueue quantifies the paper's analytic dismissal of
// kernel-managed software queues (§III-A: "these overheads dwarf the
// access latency"): all four interfaces on the same 1 us device and
// thread sweep.
func (s Suite) ExpKernelQueue() *stats.Table {
	t := &stats.Table{
		ID:     "ext-kernelq",
		Title:  "All four access interfaces at 1us (kernel queues quantified)",
		XLabel: "threads",
		YLabel: "normalized work IPC (vs single-thread DRAM)",
	}
	wl := s.ubenchSpec(1, workload.DefaultWorkCount)
	cfg := s.Base
	base := s.exec(dramCell(cfg, wl))
	pf := t.AddSeries("prefetch")
	sq := t.AddSeries("swqueue")
	kq := t.AddSeries("kernelq")
	var cells []pendingCell
	for _, n := range s.Threads {
		x := float64(n)
		cells = append(cells,
			pendingCell{series: pf, x: x, run: s.exec(prefetchCell(cfg, wl, n, false)), base: base},
			pendingCell{series: sq, x: x, run: s.exec(swqueueCell(cfg, wl, n, false)), base: base},
			pendingCell{series: kq, x: x, run: s.exec(CellSpec{Mech: "kernelq", Config: cfg, Workload: wl, Threads: n}), base: base})
	}
	resolve(cells)
	_, kqPeak := kq.Peak()
	t.Note("kernel-managed queues peak at %.3f: syscalls, 2us kernel switches and interrupts dwarf the 1us access (§III-A)", kqPeak)
	return t
}

// ExpSMT measures hardware multithreading as the only latency-hiding
// aid for on-demand accesses (§III-B): SMT widens the overlap by its
// context count, which is a small factor against a microsecond.
func (s Suite) ExpSMT() *stats.Table {
	t := &stats.Table{
		ID:     "ext-smt",
		Title:  "SMT on-demand access vs context count",
		XLabel: "hardware contexts",
		YLabel: "normalized work IPC (vs single-thread DRAM)",
	}
	wl := s.ubenchSpec(1, workload.DefaultWorkCount)
	var cells []pendingCell
	for _, lat := range []sim.Time{1 * sim.Microsecond, 4 * sim.Microsecond} {
		cfg := s.Base.WithLatency(lat)
		base := s.exec(dramCell(cfg, wl))
		series := t.AddSeries(latLabel(lat))
		for _, contexts := range []int{1, 2, 4, 8} {
			c := cfg
			c.SMTContexts = contexts
			run := s.exec(CellSpec{Mech: "smt", Config: c, Workload: wl})
			cells = append(cells, pendingCell{series: series, x: float64(contexts), run: run, base: base})
		}
	}
	resolve(cells)
	t.Note("commodity SMT (2 contexts) roughly doubles on-demand throughput — far short of the 10+ in-flight accesses a microsecond needs (§III-B)")
	return t
}

// ExpWrites exercises the write-path extension (§VII): posted writes on
// the prefetch path ride the store buffer nearly for free, while every
// software-queue write still pays the per-descriptor management cost.
func (s Suite) ExpWrites() *stats.Table {
	t := &stats.Table{
		ID:     "ext-writes",
		Title:  "Read/write mixes at 1us (writes are posted, §VII)",
		XLabel: "threads",
		YLabel: "normalized work IPC (vs single-thread DRAM)",
	}
	cfg := s.Base
	var cells []pendingCell
	for _, writes := range []int{0, 1, 4} {
		wl := s.ubenchSpec(1, workload.DefaultWorkCount)
		wl.Writes = writes
		base := s.exec(dramCell(cfg, wl))
		pf := t.AddSeries(fmt.Sprintf("prefetch +%dw", writes))
		sq := t.AddSeries(fmt.Sprintf("swqueue +%dw", writes))
		for _, n := range s.Threads {
			x := float64(n)
			cells = append(cells,
				pendingCell{series: pf, x: x, run: s.exec(prefetchCell(cfg, wl, n, false)), base: base},
				pendingCell{series: sq, x: x, run: s.exec(swqueueCell(cfg, wl, n, false)), base: base})
		}
	}
	resolve(cells)
	t.Note("prefetch-path writes cost ~1ns each (store buffer absorbs them); SWQ writes pay the descriptor overhead, compounding its 50%% cap")
	return t
}

// ExpMemBus runs the system the paper argues for (§V-B implications):
// the device on the memory interconnect (DDR-class link, >=48-entry
// shared queue) with rule-sized per-core queues — multicore prefetch
// then hides microsecond latencies at every latency point.
func (s Suite) ExpMemBus() *stats.Table {
	t := &stats.Table{
		ID:     "ext-membus",
		Title:  "The paper's proposed system: memory-interconnect attach + sized queues",
		XLabel: "cores",
		YLabel: "normalized work IPC (vs single-core DRAM)",
	}
	wl := s.ubenchSpec(1, workload.DefaultWorkCount)
	var cells []pendingCell
	for _, lat := range latencies {
		series := t.AddSeries(latLabel(lat) + " membus+rule")
		stock := t.AddSeries(latLabel(lat) + " stock pcie")
		base := s.exec(dramCell(s.Base.WithLatency(lat), wl))
		threads := 20 * int(lat/sim.Microsecond) // enough to cover the rule-sized LFBs
		for _, cores := range []int{1, 2, 4, 8} {
			cfg := s.Base.WithLatency(lat).WithCores(cores)
			cells = append(cells, pendingCell{series: stock, x: float64(cores),
				run: s.exec(prefetchCell(cfg, wl, threads, false)), base: base})

			tuned := cfg.AsMemBus()
			tuned.LFBPerCore = 20 * int(lat/sim.Microsecond) // the §V-B rule
			tuned.ChipQueueMMIO = tuned.LFBPerCore * cores
			cells = append(cells, pendingCell{series: series, x: float64(cores),
				run: s.exec(prefetchCell(tuned, wl, threads, false)), base: base})
		}
	}
	resolve(cells)
	t.Note("with queues sized by 20 x latency(us) x cores and a memory-class link, every latency scales near-linearly with cores — \"successful usage of microsecond-level devices is not predicated on drastically new architectures\" (§VII)")
	return t
}

// ExpTailLatency extends the paper's fixed-latency emulator with
// heavy-tailed devices (flash reads behind erases): round-robin
// prefetch scheduling head-of-line blocks on outliers, while the
// software queue's completion-ordered FIFO scheduler absorbs them.
func (s Suite) ExpTailLatency() *stats.Table {
	t := &stats.Table{
		ID:     "ext-tail",
		Title:  "1% 10x latency tail at 1us (extension)",
		XLabel: "threads",
		YLabel: "normalized work IPC (vs single-thread DRAM)",
	}
	wl := s.ubenchSpec(1, workload.DefaultWorkCount)
	variants := []struct {
		label string
		prob  float64
	}{
		{"fixed", 0},
		{"1%-tail", 0.01},
	}
	notePercentiles := func(r core.Result) {
		t.Note("prefetch 10t with tail: access P50 %.0fns P99 %.0fns", r.Diag.AccessP50Ns, r.Diag.AccessP99Ns)
	}
	var cells []pendingCell
	for _, v := range variants {
		cfg := s.Base
		cfg.DeviceLatencyTailProb = v.prob
		base := s.exec(dramCell(cfg, wl))
		pf := t.AddSeries("prefetch " + v.label)
		sq := t.AddSeries("swqueue " + v.label)
		for _, n := range s.Threads {
			var post func(core.Result)
			if v.prob > 0 && n == 10 {
				post = notePercentiles
			}
			x := float64(n)
			cells = append(cells,
				pendingCell{series: pf, x: x, run: s.exec(prefetchCell(cfg, wl, n, false)), base: base, post: post},
				pendingCell{series: sq, x: x, run: s.exec(swqueueCell(cfg, wl, n, false)), base: base})
		}
	}
	resolve(cells)
	return t
}

// ExpPointerChase runs the workload the paper's introduction singles
// out — "pointer-based serial dependence chains commonly found in
// modern server workloads" — where a thread can never overlap its own
// accesses. At a short work-count the out-of-order window would find
// cross-iteration MLP in an independent-access loop, but a chain denies
// it: the chase's DRAM baseline is itself latency-bound, so thread-level
// parallelism (which the prefetch mechanism supplies) recovers *more*
// than it does for independent accesses.
func (s Suite) ExpPointerChase() *stats.Table {
	const chaseWork = 50 // short enough that the window matters
	t := &stats.Table{
		ID:     "ext-ptrchase",
		Title:  "Pointer chasing at 1us (work=50): dependence chains need threads",
		XLabel: "threads",
		YLabel: "normalized work IPC (vs own DRAM baseline)",
	}
	cfg := s.Base
	chase := WorkloadSpec{Kind: "ptrchase", ChaseNodes: 4096, Iters: s.Iterations, Work: chaseWork}
	base := s.exec(dramCell(cfg, chase))
	indep := s.ubenchSpec(1, chaseWork)
	indepBase := s.exec(dramCell(cfg, indep))
	od := s.exec(onDemandCell(cfg, chase))

	pf := t.AddSeries("chase prefetch")
	sq := t.AddSeries("chase swqueue")
	ub := t.AddSeries("independent prefetch")
	var cells []pendingCell
	for _, n := range s.Threads {
		x := float64(n)
		cells = append(cells,
			pendingCell{series: pf, x: x, run: s.exec(prefetchCell(cfg, chase, n, true)), base: base},
			pendingCell{series: sq, x: x, run: s.exec(swqueueCell(cfg, chase, n, true)), base: base},
			pendingCell{series: ub, x: x, run: s.exec(prefetchCell(cfg, indep, n, false)), base: indepBase})
	}
	resolve(cells)
	b, ib := must(base.Result()), must(indepBase.Result())
	t.Note("chase DRAM baseline %.0fns/hop vs independent %.0fns/iter: the chain denies the window its MLP",
		b.IterationTime()*1e9, ib.IterationTime()*1e9)
	t.Note("on-demand device chasing runs at %.3f of DRAM; threading restores it",
		must(od.Result()).NormalizedTo(b.Measurement))
	return t
}

// ExpDevices runs the prefetch mechanism against the emerging-device
// classes the paper's introduction motivates (§I): 3D XPoint-class NVM
// (350 ns, memory-attached), RDMA-class remote memory (3 us), and
// NVMe-class flash (25 us), with queues sized by the §V-B rule. The
// thread sweep shows how much concurrency each device class demands.
func (s Suite) ExpDevices() *stats.Table {
	t := &stats.Table{
		ID:     "ext-devices",
		Title:  "Emerging device classes under prefetch + rule-sized queues",
		XLabel: "threads",
		YLabel: "normalized work IPC (vs single-thread DRAM)",
	}
	devices := []struct {
		label string
		cfg   platform.Config
	}{
		{"xpoint-350ns", platform.XPointDevice()},
		{"rdma-3us", platform.RDMADevice()},
		{"flash-25us", platform.FlashDevice()},
	}
	threads := append(append([]int{}, s.Threads...), 24, 48, 96, 192, 384, 512)
	var cells []pendingCell
	for _, dev := range devices {
		cfg := dev.cfg
		// The presets start from the default platform: carry the
		// suite's observers over — the trace recorder, the flight
		// recorder and attribution — so these cells are traced and
		// report like every other extension cell.
		cfg.Trace = s.Base.Trace
		cfg.MetricsWindow, cfg.MetricsMaxWindows, cfg.MetricsSink = s.Base.MetricsWindow, s.Base.MetricsMaxWindows, s.Base.MetricsSink
		cfg.Attribution = s.Base.Attribution
		// Provision the hardware by the paper's rule so the device
		// class, not today's queue sizes, sets the requirement.
		us := cfg.DeviceLatency.Microseconds()
		rule := int(20*us) + 1
		if rule < cfg.LFBPerCore {
			rule = cfg.LFBPerCore
		}
		cfg.LFBPerCore = rule
		cfg.ChipQueueMMIO = rule
		series := t.AddSeries(dev.label)
		for _, n := range threads {
			// Keep warm-up (one device latency) negligible at high
			// thread counts by scaling the run length.
			wl := s.ubenchSpec(1, workload.DefaultWorkCount)
			wl.Iters = max(wl.Iters, n*30)
			base := s.exec(dramCell(cfg, wl))
			run := s.exec(prefetchCell(cfg, wl, n, false))
			cells = append(cells, pendingCell{series: series, x: float64(n), run: run, base: base})
		}
	}
	resolve(cells)
	for i, dev := range devices {
		t.Note("%s reaches 90%% of its peak at ~%.0f threads", dev.label, t.Series[i].KneeX(0.9))
	}
	return t
}

// ExpLocality enables the cacheable-MMIO advantage the paper describes
// but never measures (§III-B: cacheable regions "can take advantage of
// locality"; §V-C: software queues get no hardware caching or
// coherence): Bloom filters of shrinking footprint under a 32 KB
// per-core device cache. As the filter fits, prefetch-path accesses hit
// on-chip and skip the device entirely; the software-queue path cannot
// benefit at any footprint.
func (s Suite) ExpLocality() *stats.Table {
	t := &stats.Table{
		ID:     "ext-locality",
		Title:  "Cacheable MMIO under locality (Bloom lookups, 8 threads, 32KB cache)",
		XLabel: "filter footprint (KB)",
		YLabel: "normalized performance (vs own DRAM baseline)",
	}
	cfg := s.Base
	cfg.DeviceCacheLines = 512 // 32 KB
	pf := t.AddSeries("prefetch")
	sq := t.AddSeries("swqueue")
	hits := t.AddSeries("prefetch cache hit rate")
	var cells []pendingCell
	for _, bits := range []uint64{1 << 16, 1 << 19, 1 << 22} { // 8KB, 64KB, 512KB
		kb := float64(bits / 8 / 1024)
		bloom := WorkloadSpec{Kind: "bloom", BloomBits: bits, BloomHashes: 4, BloomKeys: 512,
			Lookups: s.AppLookups, Work: workload.DefaultWorkCount}
		base := s.exec(dramCell(cfg, bloom))
		cells = append(cells,
			pendingCell{series: pf, x: kb, run: s.exec(prefetchCell(cfg, bloom, 8, false)), base: base,
				post: func(r core.Result) { hits.Add(kb, r.Diag.CacheHitRate) }},
			pendingCell{series: sq, x: kb, run: s.exec(swqueueCell(cfg, bloom, 8, false)), base: base})
	}
	resolve(cells)
	t.Note("hardware caching is exclusive to the memory-mapped interface; SWQ response buffers see none (§V-C)")
	return t
}
