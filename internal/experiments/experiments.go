// Package experiments regenerates every experimental figure of the
// paper's evaluation (§V) plus the ablations its implications sections
// argue for. Each Fig* method performs the full parameter sweep of the
// corresponding figure and returns a stats.Table whose series mirror the
// figure's curves; values are normalized exactly as in the paper
// (§IV-C: to the matching single-threaded, single-core on-demand DRAM
// baseline).
package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Suite holds the sweep configuration shared by all experiments.
type Suite struct {
	// Base is the platform every experiment starts from.
	Base platform.Config
	// Iterations is the per-core microbenchmark loop count per run. The
	// paper averages over 1M iterations on hardware; a few thousand
	// simulated iterations reach steady state.
	Iterations int
	// AppLookups is the per-core lookup count for the application
	// benchmarks.
	AppLookups int
	// Threads is the thread-per-core sweep used by the threaded
	// mechanisms.
	Threads []int
	// UseReplay applies the record/replay methodology to the
	// application benchmarks.
	UseReplay bool
	// Quick marks the reduced sweep; recorded in run reports so a
	// quick artifact is never diffed against a publication baseline.
	Quick bool
	// Exec, when set, runs cells through a worker pool with a result
	// cache (see cells.go). Nil means direct serial execution — the
	// legacy behavior. Execution strategy never changes results: the
	// figures collect cells in program order, so output is
	// byte-identical at any worker count. It is not stamped into
	// reports for the same reason.
	Exec *Exec
	// FleetShards is the engine-advance worker count inside each fleet
	// cell (cluster.Config.Shards): cell-level parallelism, orthogonal
	// to Exec's cell-at-a-time parallelism. Like Exec it never changes
	// results — the sharded fleet driver is byte-deterministic — and is
	// not stamped into reports. 0 or 1 keeps the serial fleet driver.
	// Callers running sweeps should split cores between the two layers
	// with ShardBudget so the pools compose instead of oversubscribing.
	FleetShards int
}

// Default returns the publication sweep.
func Default() Suite {
	return Suite{
		Base:       platform.Default(),
		Iterations: 3000,
		AppLookups: 800,
		Threads:    []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16},
		UseReplay:  true,
	}
}

// Quick returns a reduced sweep for smoke tests and examples.
func Quick() Suite {
	s := Default()
	s.Iterations = 800
	s.AppLookups = 200
	s.Threads = []int{1, 2, 4, 8, 10, 16}
	s.Quick = true
	return s
}

// Validate reports the first implausible suite field, or nil. Every
// experiment entry point should call it (the CLI does) so a bad sweep
// fails before hours of simulation, not during.
func (s Suite) Validate() error {
	if err := s.Base.Validate(); err != nil {
		return err
	}
	if s.Iterations <= 0 {
		return fmt.Errorf("experiments: iterations %d must be positive", s.Iterations)
	}
	if s.AppLookups <= 0 {
		return fmt.Errorf("experiments: app lookups %d must be positive", s.AppLookups)
	}
	if len(s.Threads) == 0 {
		return fmt.Errorf("experiments: thread sweep must not be empty")
	}
	for _, n := range s.Threads {
		if n <= 0 {
			return fmt.Errorf("experiments: thread count %d must be positive", n)
		}
	}
	if s.FleetShards < 0 {
		return fmt.Errorf("experiments: fleet shards %d must be non-negative", s.FleetShards)
	}
	return nil
}

// ShardBudget splits the machine between the two parallelism layers: a
// sweep running `parallel` cells at once gets GOMAXPROCS/parallel
// engine-advance shards inside each fleet cell, so cells × shards
// never oversubscribes the cores. A single-cell run (parallel ≤ 1)
// gets the whole machine.
func ShardBudget(parallel int) int {
	procs := runtime.GOMAXPROCS(0)
	if parallel < 1 {
		parallel = 1
	}
	return max(1, procs/parallel)
}

// must unwraps a run result. Suite configurations are validated before
// any sweep starts and derive every per-run config from the validated
// base, so a failing run here is a harness bug, not user input.
func must(r core.Result, err error) core.Result {
	if err != nil {
		panic(err)
	}
	return r
}

// latencies swept in the latency figures.
var latencies = []sim.Time{1 * sim.Microsecond, 2 * sim.Microsecond, 4 * sim.Microsecond}

// fig2WorkCounts is the work-per-access sweep of Fig 2; fig4WorkCounts
// the (shorter) one of Fig 4. Exported to run reports via Spec.
var (
	fig2WorkCounts = []int{100, 200, 500, 1000, 2000, 5000}
	fig4WorkCounts = []int{100, 200, 500, 1000}
	mlpLevels      = []int{1, 2, 4}
)

// KroneckerSeed is the fixed seed of the BFS input graph (§IV-C); it is
// part of a run's parameterization and therefore stamped into reports.
const KroneckerSeed = 20180610

// runDiag extracts the report-facing per-cell diagnostics of one run.
func runDiag(r core.Result) stats.RunDiag {
	return stats.RunDiag{
		Accesses:          r.Accesses,
		P50Ns:             stats.Float(r.Diag.AccessP50Ns),
		P99Ns:             stats.Float(r.Diag.AccessP99Ns),
		P999Ns:            stats.Float(r.Diag.AccessP999Ns),
		MeanLFBOccupancy:  stats.Float(r.Diag.MeanLFBOccupancy),
		MeanChipOccupancy: stats.Float(r.Diag.MeanChipOccupancy),
		SimEvents:         r.Diag.SimEvents,
	}
}

// addRun appends a measured device run to the series, normalized to
// base and carrying the run's diagnostics into reports.
func addRun(series *stats.Series, x float64, r core.Result, base core.Result) {
	series.AddRun(x, r.NormalizedTo(base.Measurement), runDiag(r))
}

func latLabel(l sim.Time) string { return fmt.Sprintf("%gus", l.Microseconds()) }

func (s Suite) ubench(reads, work int) *workload.Microbench {
	return workload.NewMicrobench(s.Iterations, work, reads)
}

// ubenchSpec is the cell-layer counterpart of ubench: a value spec the
// executor can hash and rebuild per run.
func (s Suite) ubenchSpec(reads, work int) WorkloadSpec {
	return WorkloadSpec{Kind: "ubench", Iters: s.Iterations, Work: work, Reads: reads}
}

// Fig2 — on-demand access of the microsecond device, normalized work IPC
// versus work-count, for 1/2/4 us devices (§V-A).
func (s Suite) Fig2() *stats.Table {
	t := &stats.Table{
		ID:     "fig2",
		Title:  "On-demand access of microsecond-latency device",
		XLabel: "work instructions per access",
		YLabel: "normalized work IPC (vs single-thread DRAM)",
	}
	var cells []pendingCell
	for _, lat := range latencies {
		cfg := s.Base.WithLatency(lat)
		series := t.AddSeries(latLabel(lat))
		for _, w := range fig2WorkCounts {
			wl := s.ubenchSpec(1, w)
			base := s.exec(dramCell(cfg, wl))
			dev := s.exec(onDemandCell(cfg, wl))
			cells = append(cells, pendingCell{series: series, x: float64(w), run: dev, base: base, diag: true})
		}
	}
	resolve(cells)
	t.Note("drop is abysmal at moderate work counts; only ~5000-instruction work partially abates it (§V-A)")
	return t
}

// Fig3 — prefetch-based access versus thread count for 1/2/4 us devices;
// the 10-entry LFB pool caps every curve at 10 threads (§V-B).
func (s Suite) Fig3() *stats.Table {
	t := &stats.Table{
		ID:     "fig3",
		Title:  "Prefetch-based access with various latencies",
		XLabel: "threads",
		YLabel: "normalized work IPC (vs single-thread DRAM)",
	}
	wl := s.ubenchSpec(1, workload.DefaultWorkCount)
	var cells []pendingCell
	for _, lat := range latencies {
		cfg := s.Base.WithLatency(lat)
		base := s.exec(dramCell(cfg, wl))
		series := t.AddSeries(latLabel(lat))
		for _, n := range s.Threads {
			run := s.exec(prefetchCell(cfg, wl, n, false))
			cells = append(cells, pendingCell{series: series, x: float64(n), run: run, base: base, diag: true})
		}
	}
	resolve(cells)
	if s1 := t.FindSeries("1us"); s1 != nil {
		x, y := s1.Peak()
		t.Note("1us peak %.2f at %.0f threads (paper: ~DRAM parity at 10 threads)", y, x)
	}
	return t
}

// Fig4 — prefetch-based access at 1 us with various work-counts: more
// work per access needs fewer threads to hide the latency (§V-B).
func (s Suite) Fig4() *stats.Table {
	t := &stats.Table{
		ID:     "fig4",
		Title:  "1us prefetch-based access with various work counts",
		XLabel: "threads",
		YLabel: "normalized work IPC (vs single-thread DRAM)",
	}
	cfg := s.Base // 1us default
	var cells []pendingCell
	for _, w := range fig4WorkCounts {
		wl := s.ubenchSpec(1, w)
		base := s.exec(dramCell(cfg, wl))
		series := t.AddSeries(fmt.Sprintf("work=%d", w))
		for _, n := range s.Threads {
			run := s.exec(prefetchCell(cfg, wl, n, false))
			cells = append(cells, pendingCell{series: series, x: float64(n), run: run, base: base, diag: true})
		}
	}
	resolve(cells)
	return t
}

// Fig5 — multicore prefetch-based access: per-core LFBs aggregate until
// the 14-entry chip-level shared queue binds (§V-B). All values are
// normalized to the single-core DRAM baseline.
func (s Suite) Fig5() *stats.Table {
	t := &stats.Table{
		ID:     "fig5",
		Title:  "Multicore prefetch-based access with various latencies",
		XLabel: "threads per core",
		YLabel: "normalized work IPC (vs single-core DRAM)",
	}
	wl := s.ubenchSpec(1, workload.DefaultWorkCount)
	maxChip := 0
	meanChip := 0.0
	track := func(r core.Result) {
		if r.Diag.MaxChipQueue > maxChip {
			maxChip = r.Diag.MaxChipQueue
		}
		if r.Diag.MeanChipOccupancy > meanChip {
			meanChip = r.Diag.MeanChipOccupancy
		}
	}
	var cells []pendingCell
	for _, lat := range latencies {
		base := s.exec(dramCell(s.Base.WithLatency(lat), wl))
		for _, cores := range []int{1, 2, 4, 8} {
			cfg := s.Base.WithLatency(lat).WithCores(cores)
			series := t.AddSeries(fmt.Sprintf("%s %dc", latLabel(lat), cores))
			for _, n := range s.Threads {
				run := s.exec(prefetchCell(cfg, wl, n, false))
				cells = append(cells, pendingCell{series: series, x: float64(n), run: run, base: base, diag: true, post: track})
			}
		}
	}
	resolve(cells)
	t.Note("chip-level queue occupancy observed: peak %d, best time-weighted mean %.1f (paper: limit 14)", maxChip, meanChip)
	return t
}

// Fig6 — prefetch-based access at 1 us with MLP 1/2/4; each curve is
// normalized to the DRAM baseline with matching MLP. Multi-read batches
// consume LFBs faster: knees at ~10/5/3 threads (§V-B).
func (s Suite) Fig6() *stats.Table {
	t := &stats.Table{
		ID:     "fig6",
		Title:  "1us prefetch-based access at various levels of MLP",
		XLabel: "threads",
		YLabel: "normalized work IPC (vs MLP-matched DRAM)",
	}
	cfg := s.Base
	var cells []pendingCell
	seriesByReads := make(map[int]*stats.Series)
	for _, reads := range mlpLevels {
		wl := s.ubenchSpec(reads, workload.DefaultWorkCount)
		base := s.exec(dramCell(cfg, wl))
		series := t.AddSeries(fmt.Sprintf("%d-read", reads))
		seriesByReads[reads] = series
		for _, n := range s.Threads {
			run := s.exec(prefetchCell(cfg, wl, n, false))
			cells = append(cells, pendingCell{series: series, x: float64(n), run: run, base: base, diag: true})
		}
	}
	resolve(cells)
	for _, reads := range mlpLevels {
		knee := seriesByReads[reads].KneeX(0.97)
		t.Note("%d-read saturates at ~%.0f threads (paper: %d)", reads, knee,
			map[int]int{1: 10, 2: 5, 4: 3}[reads])
	}
	return t
}

// Fig7 — prefetch versus application-managed queues at 1 and 4 us: SWQ
// scales past the LFB limit but queue-management overhead caps it near
// 50% of the DRAM baseline (§V-C).
func (s Suite) Fig7() *stats.Table {
	t := &stats.Table{
		ID:     "fig7",
		Title:  "Application-managed queues vs prefetch-based access",
		XLabel: "threads",
		YLabel: "normalized work IPC (vs single-thread DRAM)",
	}
	wl := s.ubenchSpec(1, workload.DefaultWorkCount)
	threads := append(append([]int{}, s.Threads...), 20, 24, 28, 32)
	var cells []pendingCell
	for _, lat := range []sim.Time{1 * sim.Microsecond, 4 * sim.Microsecond} {
		cfg := s.Base.WithLatency(lat)
		base := s.exec(dramCell(cfg, wl))
		pf := t.AddSeries("prefetch " + latLabel(lat))
		sq := t.AddSeries("swqueue " + latLabel(lat))
		for _, n := range threads {
			cells = append(cells,
				pendingCell{series: pf, x: float64(n), run: s.exec(prefetchCell(cfg, wl, n, false)), base: base, diag: true},
				pendingCell{series: sq, x: float64(n), run: s.exec(swqueueCell(cfg, wl, n, false)), base: base, diag: true})
		}
	}
	resolve(cells)
	if sq := t.FindSeries("swqueue 1us"); sq != nil {
		_, y := sq.Peak()
		t.Note("swqueue 1us peak %.2f (paper: ~0.5, capped by queue management overhead)", y)
	}
	return t
}

// Fig8 — multicore application-managed queues at 1 and 4 us: linear
// core scaling into the PCIe request-rate wall at eight cores, where
// only ~half the upstream bandwidth carries useful data (§V-C).
func (s Suite) Fig8() *stats.Table {
	t := &stats.Table{
		ID:     "fig8",
		Title:  "Multicore software-managed queues",
		XLabel: "threads per core",
		YLabel: "normalized work IPC (vs single-core DRAM)",
	}
	wl := s.ubenchSpec(1, workload.DefaultWorkCount)
	threads := append(append([]int{}, s.Threads...), 24, 32, 48)
	var useful, gbps float64
	track8c := func(r core.Result) {
		if r.Diag.UpstreamGBps > gbps {
			gbps = r.Diag.UpstreamGBps
			useful = r.Diag.UpstreamUseful
		}
	}
	var cells []pendingCell
	for _, lat := range []sim.Time{1 * sim.Microsecond, 4 * sim.Microsecond} {
		base := s.exec(dramCell(s.Base.WithLatency(lat), wl))
		for _, cores := range []int{1, 2, 4, 8} {
			cfg := s.Base.WithLatency(lat).WithCores(cores)
			series := t.AddSeries(fmt.Sprintf("%s %dc", latLabel(lat), cores))
			var post func(core.Result)
			if cores == 8 {
				post = track8c
			}
			for _, n := range threads {
				run := s.exec(swqueueCell(cfg, wl, n, false))
				cells = append(cells, pendingCell{series: series, x: float64(n), run: run, base: base, diag: true, post: post})
			}
		}
	}
	resolve(cells)
	t.Note("8-core peak useful upstream bandwidth %.2f GB/s at %.0f%% efficiency (paper: ~2 GB/s of 4 GB/s)", gbps, useful*100)
	return t
}

// Fig9 — application-managed queues with MLP at one and four cores,
// each normalized to the MLP-matched single-core DRAM baseline (§V-C).
func (s Suite) Fig9() *stats.Table {
	t := &stats.Table{
		ID:     "fig9",
		Title:  "Impact of MLP on software-managed queues (1 and 4 cores)",
		XLabel: "threads per core",
		YLabel: "normalized work IPC (vs MLP-matched single-core DRAM)",
	}
	threads := append(append([]int{}, s.Threads...), 24, 32)
	var cells []pendingCell
	for _, cores := range []int{1, 4} {
		for _, reads := range mlpLevels {
			wl := s.ubenchSpec(reads, workload.DefaultWorkCount)
			base := s.exec(dramCell(s.Base, wl))
			cfg := s.Base.WithCores(cores)
			series := t.AddSeries(fmt.Sprintf("%dc %d-read", cores, reads))
			for _, n := range threads {
				run := s.exec(swqueueCell(cfg, wl, n, false))
				cells = append(cells, pendingCell{series: series, x: float64(n), run: run, base: base, diag: true})
			}
		}
	}
	resolve(cells)
	for _, reads := range mlpLevels {
		if series := t.FindSeries(fmt.Sprintf("1c %d-read", reads)); series != nil {
			_, y := series.Peak()
			t.Note("single-core %d-read peak %.2f (paper: %.2f)", reads, y,
				map[int]float64{1: 0.5, 2: 0.45, 4: 0.35}[reads])
		}
	}
	return t
}

// appSpecs describes the three §IV-C applications sized for the suite,
// in the presentation order of Fig 10 (BFS, Bloom, Memcached).
func (s Suite) appSpecs() []WorkloadSpec {
	sources := []int{1, 33, 77, 123, 205, 301, 404, 511, 600, 713, 805, 901, 17, 250, 350, 450}
	budget := s.AppLookups / len(sources) * 2
	if budget < 8 {
		budget = 8
	}
	return []WorkloadSpec{
		{Kind: "bfs", BFSScale: 10, BFSEdgeFactor: 16, BFSSeed: KroneckerSeed,
			BFSSources: sources, BFSMaxVisits: budget, Work: workload.DefaultWorkCount},
		{Kind: "bloom", BloomBits: 1 << 20, BloomHashes: 4, BloomKeys: 4096,
			Lookups: s.AppLookups, Work: workload.DefaultWorkCount},
		{Kind: "memcached", MCItems: 4096, MCValueLines: 4,
			Lookups: s.AppLookups, Work: workload.DefaultWorkCount},
	}
}

// Fig10 — the application case studies: one- and eight-core runs of
// BFS, Bloom filter and Memcached under both mechanisms at 1 us, with
// the 4-read microbenchmark alongside for comparison (§V-D). Four
// tables are returned, mirroring the four sub-figures.
func (s Suite) Fig10() []*stats.Table {
	configs := []struct {
		id    string
		title string
		cores int
		mech  string
	}{
		{"fig10a", "1-core prefetch-based", 1, "prefetch"},
		{"fig10b", "1-core software queues", 1, "swqueue"},
		{"fig10c", "8-core prefetch-based", 8, "prefetch"},
		{"fig10d", "8-core software queues", 8, "swqueue"},
	}
	apps := s.appSpecs()
	ub4 := s.ubenchSpec(4, workload.DefaultWorkCount)
	var tables []*stats.Table
	var cells []pendingCell
	for _, c := range configs {
		t := &stats.Table{
			ID:     c.id,
			Title:  c.title + " application performance at 1us",
			XLabel: "threads per core",
			YLabel: "normalized performance (vs 1-core DRAM baseline)",
		}
		cfg := s.Base.WithCores(c.cores)
		wls := append(append([]WorkloadSpec{}, apps...), ub4)
		for _, wl := range wls {
			base := s.exec(dramCell(cfg, wl))
			series := t.AddSeries(wl.Name())
			// The microbenchmark comparison point never uses replay (it
			// has no record/replay methodology in the paper).
			replay := s.UseReplay && wl.Kind != "ubench"
			for _, n := range s.Threads {
				var run *Future
				if c.mech == "prefetch" {
					run = s.exec(prefetchCell(cfg, wl, n, replay))
				} else {
					run = s.exec(swqueueCell(cfg, wl, n, replay))
				}
				cells = append(cells, pendingCell{series: series, x: float64(n), run: run, base: base, diag: true})
			}
		}
		tables = append(tables, t)
	}
	resolve(cells)
	return tables
}

// Experiment is one named step of a sweep plan: the experiment ID plus
// a closure producing its table(s). Surfacing the plan (instead of one
// monolithic All) lets the CLI report per-table progress and lets the
// report layer know what ran.
type Experiment struct {
	ID  string
	Run func() []*stats.Table
}

// one adapts a single-table experiment method into a plan step.
func one(id string, f func() *stats.Table) Experiment {
	return Experiment{ID: id, Run: func() []*stats.Table { return []*stats.Table{f()} }}
}

// PaperPlan returns every paper experiment (figures + ablations) in
// paper order as named plan steps.
func (s Suite) PaperPlan() []Experiment {
	return []Experiment{
		one("fig2", s.Fig2),
		one("fig3", s.Fig3),
		one("fig4", s.Fig4),
		one("fig5", s.Fig5),
		one("fig6", s.Fig6),
		one("fig7", s.Fig7),
		one("fig8", s.Fig8),
		one("fig9", s.Fig9),
		{ID: "fig10", Run: s.Fig10},
		one("ablation-lfb", s.AblationLFB),
		one("ablation-chipq", s.AblationChipQueue),
		one("ablation-rule", s.AblationRule),
		one("ablation-switch", s.AblationSwitchCost),
		one("ablation-swqopts", s.AblationSWQOpts),
	}
}

// RunPlan executes the plan steps in order, invoking step (when
// non-nil) before each one with the step index and ID, and returns the
// concatenated tables.
func RunPlan(plan []Experiment, step func(i int, id string)) []*stats.Table {
	var tables []*stats.Table
	for i, e := range plan {
		if step != nil {
			step(i, e.ID)
		}
		tables = append(tables, e.Run()...)
	}
	return tables
}

// All runs every figure and returns the tables in paper order.
func (s Suite) All() []*stats.Table {
	return RunPlan(s.PaperPlan(), nil)
}
