package repro

import (
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Time is a simulated duration in picoseconds.
type Time = sim.Time

// Convenient duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
)

// Config is the calibrated platform description (Xeon E5-2670v3 host,
// PCIe Gen2 x8 link, configurable-latency device emulator). Every field
// is documented with the paper passage that pins it down.
type Config = platform.Config

// FaultPlan configures deterministic fault injection (Config.Faults):
// a seed plus per-layer fault probabilities. The zero value disables
// injection entirely.
type FaultPlan = fault.Plan

// DefaultConfig returns the paper's testbed with a 1 us device.
func DefaultConfig() Config { return platform.Default() }

// Workload is a benchmark runnable under every access mechanism.
type Workload = core.Workload

// Result is one measured run plus its internal diagnostics.
type Result = core.Result

// Measurement is the paper-facing summary of a run.
type Measurement = stats.Measurement

// Table is a figure-shaped result set.
type Table = stats.Table

// NewMicrobench returns the §IV-C microbenchmark: itersPerCore loop
// iterations, each performing reads independent fresh-cache-line device
// accesses followed by workInstr dependent work instructions.
func NewMicrobench(itersPerCore, workInstr, reads int) Workload {
	return workload.NewMicrobench(itersPerCore, workInstr, reads)
}

// DefaultWorkCount is the microbenchmark's default work-count.
const DefaultWorkCount = workload.DefaultWorkCount

// NewBloom returns the Bloom-filter application benchmark.
func NewBloom(bits uint64, kHash, nKeys, lookupsPerCore, workInstr int) *workload.Bloom {
	return workload.NewBloom(bits, kHash, nKeys, lookupsPerCore, workInstr)
}

// NewMemcached returns the key-value-store application benchmark.
func NewMemcached(items, valueLines, lookupsPerCore, workInstr int) *workload.Memcached {
	return workload.NewMemcached(items, valueLines, lookupsPerCore, workInstr)
}

// NewKronecker generates a Graph500-style Kronecker graph.
func NewKronecker(scale, edgefactor int, seed int64) *workload.Graph {
	return workload.NewKronecker(scale, edgefactor, seed)
}

// NewBFS returns the Graph500 BFS application benchmark over g.
func NewBFS(g *workload.Graph, sources []int, maxVisits, workInstr int) *workload.BFS {
	return workload.NewBFS(g, sources, maxVisits, workInstr)
}

// RunDRAMBaseline measures the single-threaded on-demand DRAM baseline
// every result is normalized to (§IV-C). It returns an error for an
// invalid configuration, as do all Run functions; under fault injection
// a run that cannot complete (a core deadlocked past recovery) is also
// reported as an error rather than a truncated measurement.
func RunDRAMBaseline(cfg Config, w Workload) (Result, error) { return core.RunDRAMBaseline(cfg, w) }

// RunOnDemandDevice measures unmodified software demand-loading the
// microsecond device (Fig 2).
func RunOnDemandDevice(cfg Config, w Workload) (Result, error) {
	return core.RunOnDemandDevice(cfg, w)
}

// RunPrefetch measures the prefetch + user-level-context-switch
// mechanism (Listing 1).
//
// useReplay selects the paper's record/replay methodology (§IV-A) for
// workloads whose control flow depends on device data. Without a fault
// plan the recording happens inside the measured run, so the
// workload's own counters see one pass; with faults enabled a clean
// recording run goes first and they see two.
func RunPrefetch(cfg Config, w Workload, threadsPerCore int, useReplay bool) (Result, error) {
	return core.RunPrefetch(cfg, w, threadsPerCore, useReplay)
}

// RunSWQueue measures the application-managed software-queue mechanism.
// useReplay is as for RunPrefetch.
func RunSWQueue(cfg Config, w Workload, threadsPerCore int, useReplay bool) (Result, error) {
	return core.RunSWQueue(cfg, w, threadsPerCore, useReplay)
}

// RunKernelQueue measures kernel-managed software queues — the
// interface the paper rules out analytically in §III-A, quantified.
// useReplay is as for RunPrefetch.
func RunKernelQueue(cfg Config, w Workload, threadsPerCore int, useReplay bool) (Result, error) {
	return core.RunKernelQueue(cfg, w, threadsPerCore, useReplay)
}

// RunSMT measures on-demand access with hardware multithreading
// (§III-B): cfg.SMTContexts contexts hide each other's stalls.
func RunSMT(cfg Config, w Workload) (Result, error) { return core.RunSMT(cfg, w) }

// NewMicrobenchRW returns the read/write microbenchmark of the §VII
// write-path extension.
func NewMicrobenchRW(itersPerCore, workInstr, reads, writes int) Workload {
	return workload.NewMicrobenchRW(itersPerCore, workInstr, reads, writes)
}

// Suite is the experiment harness configuration.
type Suite = experiments.Suite

// DefaultSuite returns the publication sweep of every figure.
func DefaultSuite() Suite { return experiments.Default() }

// QuickSuite returns a reduced sweep for smoke runs.
func QuickSuite() Suite { return experiments.Quick() }
