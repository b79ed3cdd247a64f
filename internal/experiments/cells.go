package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/resultstore"
	"repro/internal/runpool"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file is the sweep-execution layer: every experiment cell — one
// deterministic core.Run* invocation — is described by a value-typed
// CellSpec, executed through an Exec (worker pool + content-addressed
// result cache), and collected through a Future in the experiment's
// own program order. Because cells are pure functions of their spec,
// the same seed and flags produce byte-identical tables, CSVs, and
// JSON reports at any worker count, and duplicated cells (the DRAM
// baselines every normalized table shares) are computed once per
// process. CellSpec.Run is the only place this package calls core.Run*.

// WorkloadSpec is a value description of a benchmark workload. Specs
// stand in for live workload objects inside cell parameterizations:
// they are hashable (for the result cache) and each execution builds a
// fresh instance with Build, so concurrently running cells never share
// a workload's mutable observation state (BFS trees, Bloom hit
// counters, ...).
type WorkloadSpec struct {
	// Kind selects the constructor: "ubench", "bloom", "memcached",
	// "bfs", or "ptrchase".
	Kind string

	// Iters is the per-core loop count: microbenchmark iterations, or
	// pointer-chase hops.
	Iters int
	// Work is the work-instruction count per iteration/lookup/batch.
	Work int
	// Reads and Writes are the microbenchmark's per-iteration device
	// accesses (the MLP and write-mix knobs).
	Reads, Writes int

	// Lookups is the per-core lookup count of the application kinds.
	Lookups int

	// Bloom filter geometry.
	BloomBits   uint64
	BloomHashes int
	BloomKeys   int

	// Memcached geometry.
	MCItems, MCValueLines int

	// BFS input graph (Kronecker parameters) and traversal set.
	BFSScale, BFSEdgeFactor int
	BFSSeed                 int64
	BFSSources              []int
	BFSMaxVisits            int

	// Pointer-chase chain length.
	ChaseNodes int
}

// Name returns the workload's display name without constructing it;
// it must match what Build().Name() returns (pinned by a test).
func (w WorkloadSpec) Name() string {
	switch w.Kind {
	case "ubench":
		if w.Writes > 0 {
			return fmt.Sprintf("ubench-w%d-r%d-wr%d", w.Work, w.Reads, w.Writes)
		}
		return fmt.Sprintf("ubench-w%d-r%d", w.Work, w.Reads)
	case "bloom":
		return fmt.Sprintf("bloom-k%d", w.BloomHashes)
	case "memcached":
		return fmt.Sprintf("memcached-v%d", w.MCValueLines)
	case "bfs":
		return fmt.Sprintf("bfs-s%d", len(w.BFSSources))
	case "ptrchase":
		return fmt.Sprintf("ptrchase-n%d", w.ChaseNodes)
	}
	return "unknown-" + w.Kind
}

// memo memoizes a workload input by its generator parameters. The
// inputs — Kronecker graphs, prepared BFS inputs, Bloom bit arrays,
// memcached value arenas — are read-only after construction and costly
// to build, so concurrent cells share one instance per
// parameterization.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

// get returns the input built for key, building it on first use.
func (c *memo[K, V]) get(key K, build func(K) V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[key]; ok {
		return v
	}
	if c.m == nil {
		c.m = make(map[K]V)
	}
	v := build(key)
	c.m[key] = v
	return v
}

type (
	graphKey struct {
		scale, edgefactor int
		seed              int64
	}
	bfsKey struct {
		graph           graphKey
		sources         string // the roots, formatted
		maxVisits, work int
	}
	bloomKey struct {
		bits         uint64
		hashes, keys int
	}
)

var (
	graphs     memo[graphKey, *workload.Graph]
	bfsInputs  memo[bfsKey, *workload.BFSInput]
	blooms     memo[bloomKey, *workload.BloomDataset]
	memcacheds memo[[2]int, *workload.MemcachedDataset] // items, value lines
)

// Build constructs a fresh workload instance over its spec's memoized
// dataset. Construction is deterministic, so two builds of one spec are
// interchangeable.
func (w WorkloadSpec) Build() core.Workload {
	switch w.Kind {
	case "ubench":
		if w.Writes > 0 {
			return workload.NewMicrobenchRW(w.Iters, w.Work, w.Reads, w.Writes)
		}
		return workload.NewMicrobench(w.Iters, w.Work, w.Reads)
	case "bloom":
		d := blooms.get(bloomKey{w.BloomBits, w.BloomHashes, w.BloomKeys}, func(k bloomKey) *workload.BloomDataset {
			return workload.NewBloomDataset(k.bits, k.hashes, k.keys)
		})
		return d.Workload(w.Lookups, w.Work)
	case "memcached":
		d := memcacheds.get([2]int{w.MCItems, w.MCValueLines}, func(k [2]int) *workload.MemcachedDataset {
			return workload.NewMemcachedDataset(k[0], k[1])
		})
		return d.Workload(w.Lookups, w.Work)
	case "bfs":
		key := bfsKey{graphKey{w.BFSScale, w.BFSEdgeFactor, w.BFSSeed}, fmt.Sprint(w.BFSSources), w.BFSMaxVisits, w.Work}
		in := bfsInputs.get(key, func(k bfsKey) *workload.BFSInput {
			g := graphs.get(k.graph, func(k graphKey) *workload.Graph {
				return workload.NewKronecker(k.scale, k.edgefactor, k.seed)
			})
			return workload.NewBFSInput(g, append([]int(nil), w.BFSSources...), k.maxVisits, k.work)
		})
		return in.Workload()
	case "ptrchase":
		return workload.NewPointerChase(w.ChaseNodes, w.Iters, w.Work)
	}
	panic(fmt.Sprintf("experiments: unknown workload kind %q", w.Kind))
}

// CellSpec fully parameterizes one simulation cell. Equal specs
// produce equal results — the invariant behind both the result cache
// and determinism under parallel execution.
type CellSpec struct {
	// Mech is the access mechanism: "dram" (the on-demand DRAM
	// baseline), "ondemand", "prefetch", "swqueue", "kernelq", or
	// "smt".
	Mech     string
	Config   platform.Config
	Workload WorkloadSpec
	// Threads is threads-per-core for the threaded mechanisms.
	Threads int
	// Replay selects the paper's record/replay methodology.
	Replay bool
	// Cluster parameterizes fleet cells (Mech "cluster"); its zero
	// value is inert for every other mechanism.
	Cluster ClusterSpec
}

// Key returns the cell's canonical content address. The trace recorder
// and the metrics sink are excluded: both are observability and never
// alter a measurement (and traced sweeps bypass the cache entirely).
// MetricsWindow/MetricsMaxWindows stay in the key — they change what a
// cached Result carries (its flight-recorder series), so metric-enabled
// cells must never collide with plain ones.
func (c CellSpec) Key() string {
	cfg := c.Config
	cfg.Trace = nil
	cfg.MetricsSink = nil
	// Cluster.Shards is likewise an execution knob: the sharded fleet
	// driver is byte-deterministic at any shard count, so a cached
	// serial fleet result is the sharded result.
	cl := c.Cluster
	cl.Shards = 0
	return resultstore.Key(
		"cell-v3",
		c.Mech,
		strconv.Itoa(c.Threads),
		strconv.FormatBool(c.Replay),
		fmt.Sprintf("%#v", cfg),
		fmt.Sprintf("%#v", c.Workload),
		fmt.Sprintf("%#v", cl),
	)
}

// Run executes the cell: build the workload, dispatch on mechanism.
func (c CellSpec) Run() (core.Result, error) {
	if c.Mech == "cluster" {
		return runCluster(c)
	}
	wl := c.Workload.Build()
	switch c.Mech {
	case "dram":
		return core.RunDRAMBaseline(c.Config, wl)
	case "ondemand":
		return core.RunOnDemandDevice(c.Config, wl)
	case "prefetch":
		return core.RunPrefetch(c.Config, wl, c.Threads, c.Replay)
	case "swqueue":
		return core.RunSWQueue(c.Config, wl, c.Threads, c.Replay)
	case "kernelq":
		return core.RunKernelQueue(c.Config, wl, c.Threads, c.Replay)
	case "smt":
		return core.RunSMT(c.Config, wl)
	}
	return core.Result{}, fmt.Errorf("experiments: unknown mechanism %q", c.Mech)
}

// Spec constructors used by the figures.

func dramCell(cfg platform.Config, wl WorkloadSpec) CellSpec {
	return CellSpec{Mech: "dram", Config: cfg, Workload: wl}
}

func onDemandCell(cfg platform.Config, wl WorkloadSpec) CellSpec {
	return CellSpec{Mech: "ondemand", Config: cfg, Workload: wl}
}

func prefetchCell(cfg platform.Config, wl WorkloadSpec, threads int, replay bool) CellSpec {
	return CellSpec{Mech: "prefetch", Config: cfg, Workload: wl, Threads: threads, Replay: replay}
}

func swqueueCell(cfg platform.Config, wl WorkloadSpec, threads int, replay bool) CellSpec {
	return CellSpec{Mech: "swqueue", Config: cfg, Workload: wl, Threads: threads, Replay: replay}
}

// buildStamp distinguishes on-disk cache entries across builds: a new
// commit (or a locally modified tree) must never serve another
// build's results. Memory-layer entries die with the process anyway.
var buildStamp = sync.OnceValue(func() string {
	stamp := runtime.Version()
	if info, ok := debug.ReadBuildInfo(); ok {
		stamp += "|" + info.Main.Version
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision", "vcs.time", "vcs.modified":
				stamp += "|" + s.Key + "=" + s.Value
			}
		}
	}
	return stamp
})

// BuildStamp identifies this binary's build for cache stamping: the Go
// toolchain version plus the module's VCS revision/time/dirty bit. It
// is the stamp under which this process reads and writes disk-cache
// entries, and the value `kurec cache gc -keep-build current` keeps.
func BuildStamp() string { return buildStamp() }

// defaultCacheEntries bounds the in-memory result cache. A full -all
// -ext sweep is a few thousand cells; results are small (a label and
// a few dozen scalars), so the default keeps every cell of one
// invocation resident.
const defaultCacheEntries = 16384

// Exec coordinates cell execution for one sweep invocation: a worker
// pool sized by the -parallel flag plus a process-wide result cache.
// A nil *Exec is valid: each cell then runs inline when it is
// submitted, uncached, which is what traced sweeps and library callers
// that invoke Fig*/Exp* methods without an executor get.
type Exec struct {
	pool  *runpool.Pool
	store *resultstore.Store[core.Result]

	mu      sync.Mutex
	futures map[string]*Future
	dedup   uint64
}

// ExecStats counts this executor's submissions: Cells is the number
// of distinct cells enqueued, Dedup the submissions answered by an
// already-pending (or completed) identical cell. The store's own
// Stats cover the layer below (memory/disk hits across executors).
type ExecStats struct {
	Cells int
	Dedup uint64
}

// Stats returns a snapshot of the executor's submission counters.
func (e *Exec) Stats() ExecStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return ExecStats{Cells: len(e.futures), Dedup: e.dedup}
}

// NewExec returns an executor with the given worker count (minimum 1)
// and a fresh in-memory result cache.
func NewExec(parallel int) *Exec {
	return NewExecWith(parallel, resultstore.New[core.Result](defaultCacheEntries))
}

// NewExecWith returns an executor over a caller-provided store —
// kurecd shares one store across jobs so identical RunPlans are
// answered from cache.
func NewExecWith(parallel int, store *resultstore.Store[core.Result]) *Exec {
	return NewExecCtx(context.Background(), parallel, store)
}

// NewExecCtx is NewExecWith under a cancellation context: once ctx is
// done, cells that have not started fail fast with ctx.Err() instead
// of running, so a sweep unwinds within one cell boundary. Cells
// already executing finish (results stay cacheable; simulations are
// not interruptible mid-cell).
func NewExecCtx(ctx context.Context, parallel int, store *resultstore.Store[core.Result]) *Exec {
	if parallel < 1 {
		parallel = 1
	}
	return &Exec{
		pool:    runpool.New(ctx, parallel, 2*parallel),
		store:   store,
		futures: make(map[string]*Future),
	}
}

// NewExecDisk is NewExec with an on-disk cache layer under dir, so
// repeated invocations of the same build skip completed cells. Entries
// land in a per-build-stamp subdirectory (see resultstore.OpenStamped)
// so `kurec cache gc` can evict stale builds wholesale.
func NewExecDisk(parallel int, dir string) (*Exec, error) {
	store, err := resultstore.OpenStamped[core.Result](dir, buildStamp(), defaultCacheEntries)
	if err != nil {
		return nil, err
	}
	return NewExecWith(parallel, store), nil
}

// Close drains the worker pool. The result store (possibly shared)
// stays usable.
func (e *Exec) Close() { e.pool.Close() }

// cell submits a spec for execution, deduplicating against every cell
// this Exec has already seen: resubmitting an identical spec returns
// the original Future without enqueueing new work.
func (e *Exec) cell(c CellSpec) *Future {
	key := c.Key()
	e.mu.Lock()
	if f, ok := e.futures[key]; ok {
		e.dedup++
		e.mu.Unlock()
		return f
	}
	f := &Future{}
	e.futures[key] = f
	e.mu.Unlock()
	f.task = runpool.Submit(e.pool, func() (core.Result, error) {
		return e.store.Do(resultstore.Key(buildStamp(), key), c.Run)
	})
	return f
}

// Future is the pending result of one cell. Result memoizes, so it
// must be called from one goroutine at a time (the assembly loop).
type Future struct {
	task *runpool.Task[core.Result]
	res  core.Result
	err  error
}

// Result blocks until the cell has run and returns its result.
func (f *Future) Result() (core.Result, error) {
	if f.task != nil {
		f.res, f.err = f.task.Wait()
		f.task = nil
	}
	return f.res, f.err
}

// exec routes one cell through the suite's executor. Without an
// executor — or when tracing is enabled, because a trace must contain
// every run in invocation order and cached cells would vanish from it
// — the cell runs inline at submission, so cells run one at a time in
// the order the experiment submits them.
func (s Suite) exec(c CellSpec) *Future {
	if s.Exec == nil || s.Base.Trace != nil {
		r, err := c.Run()
		return &Future{res: r, err: err}
	}
	return s.Exec.cell(c)
}

// runCell executes one cell synchronously (through the cache when an
// executor is attached) — for adaptive experiments whose next cell
// depends on the previous result.
func (s Suite) runCell(c CellSpec) core.Result {
	return must(s.exec(c).Result())
}

// pendingCell is one datapoint awaiting assembly: the measured run,
// the baseline it is normalized to, and where the value lands. The
// figures submit every cell up front, then resolve the pending slice
// in program order — results land in the same sequence the serial
// code produced, whatever order the workers finished in.
type pendingCell struct {
	series *stats.Series
	x      float64
	run    *Future
	base   *Future
	// diag attaches per-run diagnostics to the datapoint (figures);
	// ablations use the plain value-only form.
	diag bool
	// post, when set, observes the resolved run in assembly order —
	// figures that aggregate across cells (peak chip occupancy, bus
	// traffic at a pinned core count) hook it to keep their notes
	// deterministic.
	post func(r core.Result)
}

// resolve drains pending datapoints in submission order. A cell error
// panics via must, matching the serial harness's failure behavior.
// Flight-recorder series attach here regardless of the diag flag, so
// every resolved datapoint of a -metrics sweep carries its window
// series into the report.
func resolve(cells []pendingCell) {
	for _, c := range cells {
		r := must(c.run.Result())
		b := must(c.base.Result())
		if c.diag {
			addRun(c.series, c.x, r, b)
		} else {
			c.series.Add(c.x, r.NormalizedTo(b.Measurement))
		}
		c.series.AttachMetrics(r.Series)
		c.series.AttachAttrib(r.Attrib)
		if c.post != nil {
			c.post(r)
		}
	}
}
