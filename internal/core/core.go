// Package core implements the paper's contribution: the three
// device-access mechanisms for microsecond-latency storage (§III) and
// the measurement harness that quantifies how well each hides device
// latency (§V).
//
//   - OnDemand: unmodified software performs cacheable memory-mapped
//     loads; latency hiding falls entirely on the out-of-order core
//     (modeled by internal/cpu's interval model).
//   - Prefetch: the paper's Listing 1 — a non-binding prefetch enqueues
//     the access in the hardware queues (LFBs, chip-level MMIO queue),
//     a 30 ns user-level context switch moves to the next thread, and
//     the eventual demand load hits in the L1 (or blocks on the MSHR).
//   - SWQueue: the best software-managed-queue design the paper found —
//     application-managed descriptor rings with a doorbell-request flag
//     and burst descriptor fetch — run under a FIFO user-level scheduler
//     that polls the completion queue only when no thread is ready.
//
// Every run produces a stats.Measurement; dividing by the matching
// single-threaded on-demand DRAM baseline yields the paper's
// "normalized work IPC" / "normalized performance" (§IV-C).
package core

import (
	"repro/internal/cpu"
	"repro/internal/replay"
	"repro/internal/uthread"
)

// Workload is a benchmark that can run under every mechanism: the
// microbenchmark or one of the three applications (§IV-C).
//
// A workload owns its address-space layout. Different cores must use
// disjoint device address regions (the emulator steers per-core requests
// to per-core replay modules, §IV-A), and the total work performed by
// the threads of one core must equal the work of that core's baseline
// trace, so that normalized performance equals the baseline time ratio.
type Workload interface {
	// Name identifies the workload in labels.
	Name() string

	// Backing is the authoritative dataset the device serves (the
	// on-board "copy of the dataset" used for recording and for the
	// on-demand module).
	Backing() replay.Backing

	// Body returns the code of one user-level thread as a step
	// function: the request sequence the paper's synchronous thread
	// makes, one request per step. The workload's per-core iterations
	// are partitioned across threadsPerCore threads.
	Body(coreID, threadID, threadsPerCore int) uthread.Step

	// BaselineTrace returns the single-threaded demand-access iteration
	// trace of one core, consumed by the interval model for the DRAM
	// baseline and the on-demand device case.
	BaselineTrace(coreID int) []cpu.IterSpec
}
