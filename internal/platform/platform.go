// Package platform describes the hardware/software platform of the
// paper's evaluation (§IV): a single-socket Intel Xeon E5-2670v3 host,
// an Altera DE5-Net FPGA device emulator on a PCIe Gen2 x8 link, and the
// heavily optimized GNU-Pth-derived user-level threading library.
//
// Every constant that shapes a result in the paper is a documented field
// of Config, annotated with the sentence in the paper that pins it down.
// Experiments take a Config so that ablations (e.g. "what if the LFB
// limit of 10 were lifted?", §V-B Implications) are one-field overrides.
package platform

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// CacheLineBytes is the transfer granularity of fine-grained accesses:
// the device responds to a load "with the requested cache line" (§IV).
const CacheLineBytes = 64

// Config is the full calibrated description of the evaluation platform.
type Config struct {
	// ---- Host core (Xeon E5-2670v3, §IV-A) ----

	// CPUFreqGHz is the core clock. The E5-2670v3 runs at 2.3 GHz.
	CPUFreqGHz float64

	// IssueWidth is the superscalar width; the microbenchmark's work
	// loop is tuned to IPC ~1.4 "on a 4-wide out-of-order machine"
	// (§IV-C).
	IssueWidth int

	// WindowSize is the effective out-of-order instruction window, in
	// instructions: how far past a stalled load the core can look for
	// independent work. The paper puts it at "~100-200 instructions"
	// (§V-A Implications). Haswell's ROB holds 192 entries, but the
	// 60-entry scheduler and 72-entry load buffer bind earlier, so the
	// effective window is calibrated at 144.
	WindowSize int

	// WorkIPC is the retirement rate of the microbenchmark's dependent
	// arithmetic work: "sufficiently-many internal dependencies so as to
	// limit its IPC to ~1.4" (§IV-C).
	WorkIPC float64

	// LFBPerCore is the number of Line Fill Buffers (MSHRs) per core.
	// "all state-of-the-art Xeon server processors have at most 10 LFBs
	// per core" (§V-B).
	LFBPerCore int

	// Cores is the number of cores used on the single socket.
	Cores int

	// ---- Memory system ----

	// DRAMLatency is the loaded DRAM access latency seen by a demand
	// miss. ~80 ns is typical for the platform's DDR4-2133.
	DRAMLatency sim.Time

	// DRAMMaxOutstanding is the chip-level limit on simultaneous DRAM
	// accesses. The paper verified "at least 48 simultaneous accesses
	// can be outstanding to DRAM" (§V-B); the exact value beyond 48 does
	// not matter for any experiment.
	DRAMMaxOutstanding int

	// DRAMIssueGap is the extra serialization between simultaneous DRAM
	// loads of one core (bank conflicts, memory-controller scheduling,
	// shared data bus): k parallel random loads complete at
	// DRAMLatency + (k-1)*DRAMIssueGap rather than all at DRAMLatency.
	// This is what keeps the MLP-matched DRAM baselines of Figs 6/9/10
	// from being unrealistically fast. The emulated device does not pay
	// it — its internals are over-provisioned by design (§IV-A).
	DRAMIssueGap sim.Time

	// ChipQueueMMIO is the chip-level shared queue on the path from the
	// cores to the PCIe controller: "we have experimentally verified
	// that the maximum occupancy of this queue is 14" (§V-B).
	ChipQueueMMIO int

	// ---- PCIe link (Gen2 x8, §IV-A) ----

	// PCIeBandwidth is the per-direction peak, in bytes per second.
	// "of the 4GB/s theoretical peak of our PCIe interface" (§V-C).
	PCIeBandwidth float64

	// PCIeHeaderBytes is the per-TLP overhead: "a 24-byte PCIe packet
	// header added to each transaction, a 38% overhead" on a 64-byte
	// payload (§V-C).
	PCIeHeaderBytes int

	// PCIePropagation is the one-way latency of the link plus
	// controllers. The paper measured "~800ns" round trip (§IV-A).
	PCIePropagation sim.Time

	// ---- Device emulator (§IV-A) ----

	// DeviceLatency is the configured end-to-end response latency of the
	// emulated device, inclusive of the PCIe round trip, exactly as the
	// paper configures it ("The configured response delays account for
	// the PCIe round-trip latency").
	DeviceLatency sim.Time

	// ReplayWindow is the sliding-window depth of the replay module's
	// age-based associative lookup (§IV-A, Memory-Mapped Hardware
	// Design).
	ReplayWindow int

	// FetchBurst is the number of descriptors a request fetcher reads
	// per burst: "the request fetcher retrieves descriptors in bursts of
	// eight" (§IV-A, Software-Managed Queue Design).
	FetchBurst int

	// HostMemLatency is the latency of a device-initiated DMA read or
	// write hitting host DRAM, excluding PCIe propagation.
	HostMemLatency sim.Time

	// ---- Support software (§IV-B) ----

	// CtxSwitch is the user-level context switch cost: "we were able to
	// reduce the context switch overheads ... to 20-50 nanoseconds,
	// including the completion queue checks".
	CtxSwitch sim.Time

	// PrefetchIssue is the core-occupancy cost of issuing one
	// prefetcht0 (a couple of pipeline slots).
	PrefetchIssue sim.Time

	// WriteIssue is the core-occupancy cost of issuing one posted store
	// to the device (§VII extension).
	WriteIssue sim.Time

	// StoreBufferEntries is the per-core store-buffer depth absorbing
	// posted device writes (42 on Haswell). A full store buffer stalls
	// further stores until writes drain to the interconnect.
	StoreBufferEntries int

	// DeviceCacheLines enables the per-core on-chip cache for device
	// lines ("MMIO regions marked 'cacheable' can take advantage of
	// locality", §III-B): the number of 64-byte lines the device's
	// share of the cache holds. Zero disables caching — the paper's
	// microbenchmark touches only fresh lines, so caching is irrelevant
	// to every paper figure and is exercised by the locality extension.
	DeviceCacheLines int

	// DeviceCacheWays is the associativity of the device-line cache.
	DeviceCacheWays int

	// Trace, when non-nil, records every run into the given event
	// recorder: per-access lifecycle spans, occupancy timelines sampled
	// on state change, and PCIe TLP slices, exportable as Chrome
	// trace-event / Perfetto JSON. Nil (the default) disables tracing
	// with zero overhead and leaves every simulated timing untouched —
	// traced and untraced runs produce identical measurements.
	Trace *trace.Recorder

	// MetricsWindow enables the flight recorder: every measured run
	// records a windowed sim-time series (per-window throughput,
	// recovery counts, queue occupancy, latency percentiles) with this
	// window span — 10 µs is a good default for microsecond devices.
	// Zero (the default) disables recording with zero overhead beyond
	// one nil check per hot-path event. Unlike Trace, the recorder is
	// deterministic under parallel sweep execution and participates in
	// result caching, so it composes with -parallel and -cachedir.
	MetricsWindow sim.Time

	// MetricsMaxWindows bounds the recorder's retained ring. When the
	// ring fills, adjacent windows coalesce pair-wise and the window
	// span doubles, so any run length fits. Zero selects
	// telemetry.DefaultMaxWindows (256); values are rounded up to an
	// even count of at least 2.
	MetricsMaxWindows int

	// MetricsSink, when non-nil, additionally receives every sealed
	// window live as the run executes (kurecd streams these to
	// GET /v1/runs/{id}/metrics). Like Trace it is pure observability:
	// it never affects simulated timing, and it is excluded from
	// result-cache cell keys.
	MetricsSink telemetry.Sink

	// Attribution enables the latency-attribution ledger: every access
	// is decomposed into the internal/attrib phase taxonomy (issue,
	// queue wait, transit, device, completion wait, switch, retry,
	// slop) with exact picosecond accounting, surfaced as a per-cell
	// summary on core.Result. Like the flight recorder it is
	// observational (it never changes a measurement), deterministic
	// under parallel execution, and participates in result caching —
	// attribution-enabled cells never collide with plain ones.
	Attribution bool

	// DescriptorBytes is the size of one software-queue request
	// descriptor: "the address to read, and the target address where
	// the response data is to be stored" (§IV-A) — two 8-byte words.
	DescriptorBytes int

	// CompletionBytes is the size of one completion-queue update.
	CompletionBytes int

	// SWQBatchOverhead is the fixed per-batch software cost of the
	// application-managed queue path: the scheduler transition and the
	// doorbell-request flag check, beyond the raw context switch.
	SWQBatchOverhead sim.Time

	// SWQPerAccessOverhead is the marginal software cost of each
	// descriptor within a batch: writing the descriptor, advancing the
	// ring indices, matching and consuming its completion. Together
	// with SWQBatchOverhead it is "the overhead of software queue
	// management [that] manifests itself as a major bottleneck"
	// (§III-A); the split is calibrated so the SWQ peaks land at the
	// paper's 50% (MLP 1) and 45% (MLP 2) of the matching DRAM
	// baselines (§V-C) — the per-descriptor term dominates, matching
	// the paper's observation that the overhead grows with MLP "even
	// when the accesses are batched".
	SWQPerAccessOverhead sim.Time

	// DoorbellMMIO is the cost of the uncached MMIO doorbell write. It
	// is paid only when the doorbell-request flag is set (§III-A).
	DoorbellMMIO sim.Time

	// SWQAlwaysDoorbell disables the doorbell-request-flag optimization
	// for ablations: every batch submission rings the MMIO doorbell, as
	// in the naive design the paper found "strictly inferior" (§III-A).
	SWQAlwaysDoorbell bool

	// ---- Kernel-managed queues (§III-A; dismissed analytically by the
	// paper, quantified here) ----

	// SyscallCost is the user/kernel crossing cost, paid on entry and
	// exit of each I/O system call.
	SyscallCost sim.Time

	// KernelCtxSwitch is a kernel-mode thread context switch. The paper
	// cites Li et al. [7]: "from several to more than a thousand
	// microseconds"; 2 us is the optimistic floor.
	KernelCtxSwitch sim.Time

	// InterruptCost is interrupt delivery plus handler execution for a
	// device completion.
	InterruptCost sim.Time

	// ---- Hardware multithreading (§III-B) ----

	// SMTContexts is the number of hardware contexts per core in the
	// SMT on-demand model: "only two contexts per core available in the
	// majority of today's commodity server hardware". The testbed
	// disabled hyperthreading, so this is used only by the SMT
	// extension experiment.
	SMTContexts int

	// ---- Device latency distribution (extension) ----

	// DeviceLatencyTailProb is the probability that a device access is
	// a slow outlier (e.g. a flash read behind a GC or erase); zero in
	// the paper's fixed-latency emulator.
	DeviceLatencyTailProb float64

	// DeviceLatencyTailFactor multiplies DeviceLatency for outliers.
	DeviceLatencyTailFactor float64

	// CompletionPoll is the cost of one polling sweep of the completion
	// queue when no threads are ready (§IV-B: "The scheduler polls the
	// completion queue only when no threads remain in the ready state").
	CompletionPoll sim.Time

	// ---- Fault injection and recovery (robustness extension) ----

	// Faults is the deterministic fault plan injected into the device,
	// PCIe, and software-queue layers. The zero value injects nothing
	// and leaves every code path exactly as the fault-free model.
	Faults fault.Plan

	// AccessTimeout is the host's per-access timeout before a retry;
	// zero selects the automatic default of 16 x DeviceLatency (see
	// EffectiveAccessTimeout). NVMe-class stacks use timeouts well
	// above the typical latency so clean tail accesses never retry.
	AccessTimeout sim.Time

	// RetryBackoffFactor multiplies the timeout on each successive
	// retry of one access (exponential backoff).
	RetryBackoffFactor float64

	// RetryTimeoutCap bounds the backed-off per-attempt timeout: once
	// the exponential growth reaches the cap, later attempts use the
	// cap. Zero (the default) leaves the backoff uncapped — the
	// historical behavior.
	RetryTimeoutCap sim.Time

	// MaxRetries bounds the retries per access; past it the access is
	// abandoned and the host delivers a zero-filled line (graceful
	// degradation, accounted in Diagnostics).
	MaxRetries int

	// PCIeReplayPenalty is the link-level recovery cost of a corrupted
	// TLP beyond its retransmission time: the replay-buffer turnaround
	// of the data-link layer.
	PCIeReplayPenalty sim.Time

	// CQBackpressureDelay is how long the device defers a completion
	// post when the host completion queue is at the fault plan's
	// capacity bound.
	CQBackpressureDelay sim.Time
}

// Default returns the calibrated configuration of the paper's testbed
// with a 1 µs device.
func Default() Config {
	return Config{
		CPUFreqGHz:              2.3,
		IssueWidth:              4,
		WindowSize:              144,
		WorkIPC:                 1.4,
		LFBPerCore:              10,
		Cores:                   1,
		DRAMLatency:             80 * sim.Nanosecond,
		DRAMMaxOutstanding:      48,
		DRAMIssueGap:            25 * sim.Nanosecond,
		ChipQueueMMIO:           14,
		PCIeBandwidth:           4e9,
		PCIeHeaderBytes:         24,
		PCIePropagation:         400 * sim.Nanosecond,
		DeviceLatency:           1 * sim.Microsecond,
		ReplayWindow:            64,
		FetchBurst:              8,
		HostMemLatency:          80 * sim.Nanosecond,
		CtxSwitch:               30 * sim.Nanosecond,
		PrefetchIssue:           1 * sim.Nanosecond,
		WriteIssue:              1 * sim.Nanosecond,
		StoreBufferEntries:      42,
		DeviceCacheWays:         8,
		DescriptorBytes:         16,
		CompletionBytes:         16,
		SWQBatchOverhead:        25 * sim.Nanosecond,
		SWQPerAccessOverhead:    78 * sim.Nanosecond,
		DoorbellMMIO:            250 * sim.Nanosecond,
		CompletionPoll:          15 * sim.Nanosecond,
		SyscallCost:             150 * sim.Nanosecond,
		KernelCtxSwitch:         2 * sim.Microsecond,
		InterruptCost:           1 * sim.Microsecond,
		SMTContexts:             2,
		DeviceLatencyTailFactor: 10,
		RetryBackoffFactor:      2,
		MaxRetries:              4,
		PCIeReplayPenalty:       500 * sim.Nanosecond,
		CQBackpressureDelay:     200 * sim.Nanosecond,
	}
}

// Presets for the emerging-device classes the paper's introduction
// motivates (§I-II). Each returns the default host with the device's
// characteristic latency and an attachment that can physically carry it.

// FlashDevice models a fast NVMe-class flash read tier: "Flash memories
// (latencies in the tens of microseconds)" (§I).
func FlashDevice() Config {
	return Default().WithLatency(25 * sim.Microsecond)
}

// RDMADevice models a fast-network remote-memory access: "40-100 Gb/s
// Infiniband and Ethernet networks (single-digit microseconds)" (§I).
func RDMADevice() Config {
	c := Default().WithLatency(3 * sim.Microsecond)
	c.PCIeBandwidth = 12.5e9 // 100 Gb/s fabric
	return c
}

// XPointDevice models a 3D XPoint-class NVM: "hundreds of nanoseconds"
// (§I). Its latency sits below the PCIe round trip, so the preset
// attaches it to the memory interconnect — exactly the integration the
// paper recommends for such devices (§V-B).
func XPointDevice() Config {
	return Default().AsMemBus().WithLatency(350 * sim.Nanosecond)
}

// AsMemBus returns a copy of c with the device moved from the PCIe slot
// to the memory interconnect — the direction the paper suggests
// (§V-B: "integrating microsecond-latency devices on the memory
// interconnect ... may be a step in the right direction"). The link
// gains DDR-class bandwidth and latency, light framing, and the
// DRAM-path chip-level queue depth (>=48) instead of the PCIe path's 14.
func (c Config) AsMemBus() Config {
	c.PCIeBandwidth = 20e9                  // one DDR4 channel class
	c.PCIePropagation = 60 * sim.Nanosecond // on-package interconnect
	c.PCIeHeaderBytes = 8                   // command/address framing
	c.ChipQueueMMIO = c.DRAMMaxOutstanding
	return c
}

// WithLatency returns a copy of c with the device latency replaced; the
// paper sweeps 1, 2 and 4 µs.
func (c Config) WithLatency(l sim.Time) Config {
	c.DeviceLatency = l
	return c
}

// WithCores returns a copy of c using n cores.
func (c Config) WithCores(n int) Config {
	c.Cores = n
	return c
}

// The timing helpers below take a pointer receiver: the access path
// calls them per packet and per access, and a value receiver would
// copy the whole Config on every call.

// CycleTime returns the duration of one core clock cycle.
func (c *Config) CycleTime() sim.Time {
	return sim.FromNanoseconds(1.0 / c.CPUFreqGHz)
}

// WorkTime returns the core-occupancy time of a block of n dependent
// "work" instructions retiring at WorkIPC. Per-access paths use its
// cached form, a WorkMemo (core.Env and the on-demand interval model
// each keep one), which calls WorkTime only when n changes.
func (c *Config) WorkTime(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	cycles := float64(n) / c.WorkIPC
	return sim.FromNanoseconds(cycles / c.CPUFreqGHz)
}

// WorkMemo is a one-entry memo of Config.WorkTime: a workload's work
// blocks are nearly always the same size, so the float conversion runs
// once per size change instead of once per block. The zero memo is
// ready: it holds the entry for n = 0, which WorkTime maps to 0.
type WorkMemo struct {
	n int
	t sim.Time
}

// Time returns c.WorkTime(n), bit for bit. One memo must always be
// asked about the same c.
func (m *WorkMemo) Time(c *Config, n int) sim.Time {
	if n != m.n {
		m.n, m.t = n, c.WorkTime(n)
	}
	return m.t
}

// TLPTime returns the transmission time of one PCIe transaction-layer
// packet carrying payload bytes (header added here). The link's
// per-packet path reads its cached form, pcie.Link.TLPTime, a table this
// function fills for every payload the protocol sends. Links share
// tables keyed by PCIeBandwidth and PCIeHeaderBytes, the only fields
// read here; a new input must join that key.
func (c *Config) TLPTime(payload int) sim.Time {
	bytes := float64(payload + c.PCIeHeaderBytes)
	return sim.FromSeconds(bytes / c.PCIeBandwidth)
}

// MMIORoundTrip returns the PCIe round trip of one memory-mapped read:
// propagation both ways, the header-only request TLP and the cache-line
// response TLP.
func (c *Config) MMIORoundTrip() sim.Time {
	return 2*c.PCIePropagation + c.TLPTime(0) + c.TLPTime(CacheLineBytes)
}

// DeviceInternalDelay returns the delay the emulator's delay module
// applies on the MMIO path so that the host-observed latency equals
// DeviceLatency including the PCIe round trip (§IV-A). The response
// transmission time for one cache line is part of the round trip.
func (c *Config) DeviceInternalDelay() sim.Time {
	return c.InternalDelayFor(c.DeviceLatency)
}

// InternalDelayFor is DeviceInternalDelay for a per-request latency —
// used when the latency-tail extension draws outlier latencies. The
// device computes the round trip once and applies the same clamp per
// request (device.Device.internalDelayFor).
func (c *Config) InternalDelayFor(latency sim.Time) sim.Time {
	d := latency - c.MMIORoundTrip()
	if d < 0 {
		return 0
	}
	return d
}

// EffectiveAccessTimeout returns the per-access recovery timeout: the
// configured AccessTimeout, or 16 x DeviceLatency when unset — far
// enough above the Ext.-tail outliers (10x) that a clean slow access
// never triggers a spurious retry.
func (c *Config) EffectiveAccessTimeout() sim.Time {
	if c.AccessTimeout > 0 {
		return c.AccessTimeout
	}
	return 16 * c.DeviceLatency
}

// RetryTimeout returns the timeout for the attempt-th try of one access
// (attempt 0 is the initial issue), growing by RetryBackoffFactor per
// retry and clamped at RetryTimeoutCap when one is configured.
func (c *Config) RetryTimeout(attempt int) sim.Time {
	t := float64(c.EffectiveAccessTimeout())
	f := c.RetryBackoffFactor
	if f < 1 {
		f = 1
	}
	cap := float64(c.RetryTimeoutCap)
	for i := 0; i < attempt; i++ {
		t *= f
		if cap > 0 && t >= cap {
			t = cap
			break
		}
	}
	if cap > 0 && t > cap {
		t = cap
	}
	return sim.Time(t)
}

// Validate reports the first implausible field, or nil.
func (c Config) Validate() error {
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	switch {
	case c.CPUFreqGHz <= 0:
		return fmt.Errorf("platform: CPU frequency %v GHz must be positive", c.CPUFreqGHz)
	case c.IssueWidth <= 0:
		return fmt.Errorf("platform: issue width %d must be positive", c.IssueWidth)
	case c.WindowSize <= 0:
		return fmt.Errorf("platform: window size %d must be positive", c.WindowSize)
	case c.WorkIPC <= 0 || c.WorkIPC > float64(c.IssueWidth):
		return fmt.Errorf("platform: work IPC %v must be in (0, issue width %d]", c.WorkIPC, c.IssueWidth)
	case c.LFBPerCore <= 0:
		return fmt.Errorf("platform: LFB count %d must be positive", c.LFBPerCore)
	case c.Cores <= 0:
		return fmt.Errorf("platform: core count %d must be positive", c.Cores)
	case c.DRAMLatency <= 0:
		return fmt.Errorf("platform: DRAM latency %v must be positive", c.DRAMLatency)
	case c.DRAMMaxOutstanding <= 0:
		return fmt.Errorf("platform: DRAM outstanding limit %d must be positive", c.DRAMMaxOutstanding)
	case c.DRAMIssueGap < 0:
		return fmt.Errorf("platform: DRAM issue gap %v must be non-negative", c.DRAMIssueGap)
	case c.ChipQueueMMIO <= 0:
		return fmt.Errorf("platform: chip-level MMIO queue %d must be positive", c.ChipQueueMMIO)
	case c.PCIeBandwidth <= 0:
		return fmt.Errorf("platform: PCIe bandwidth %v must be positive", c.PCIeBandwidth)
	case c.PCIeHeaderBytes < 0:
		return fmt.Errorf("platform: PCIe header bytes %d must be non-negative", c.PCIeHeaderBytes)
	case c.PCIePropagation < 0:
		return fmt.Errorf("platform: PCIe propagation %v must be non-negative", c.PCIePropagation)
	case c.DeviceLatency <= 0:
		return fmt.Errorf("platform: device latency %v must be positive", c.DeviceLatency)
	case c.DeviceLatency < 2*c.PCIePropagation:
		return fmt.Errorf("platform: device latency %v below PCIe round trip %v", c.DeviceLatency, 2*c.PCIePropagation)
	case c.ReplayWindow <= 0:
		return fmt.Errorf("platform: replay window %d must be positive", c.ReplayWindow)
	case c.FetchBurst <= 0:
		return fmt.Errorf("platform: fetch burst %d must be positive", c.FetchBurst)
	case c.CtxSwitch < 0:
		return fmt.Errorf("platform: context switch cost %v must be non-negative", c.CtxSwitch)
	case c.WriteIssue < 0:
		return fmt.Errorf("platform: write issue cost %v must be non-negative", c.WriteIssue)
	case c.StoreBufferEntries <= 0:
		return fmt.Errorf("platform: store buffer entries %d must be positive", c.StoreBufferEntries)
	case c.DeviceCacheLines < 0:
		return fmt.Errorf("platform: device cache lines %d must be non-negative", c.DeviceCacheLines)
	case c.DeviceCacheLines > 0 && (c.DeviceCacheWays <= 0 || c.DeviceCacheLines%c.DeviceCacheWays != 0):
		return fmt.Errorf("platform: device cache %d lines not divisible into %d ways", c.DeviceCacheLines, c.DeviceCacheWays)
	case c.DescriptorBytes <= 0:
		return fmt.Errorf("platform: descriptor size %d must be positive", c.DescriptorBytes)
	case c.CompletionBytes <= 0:
		return fmt.Errorf("platform: completion size %d must be positive", c.CompletionBytes)
	case c.SyscallCost < 0:
		return fmt.Errorf("platform: syscall cost %v must be non-negative", c.SyscallCost)
	case c.KernelCtxSwitch < 0:
		return fmt.Errorf("platform: kernel context switch %v must be non-negative", c.KernelCtxSwitch)
	case c.InterruptCost < 0:
		return fmt.Errorf("platform: interrupt cost %v must be non-negative", c.InterruptCost)
	case c.SMTContexts <= 0:
		return fmt.Errorf("platform: SMT contexts %d must be positive", c.SMTContexts)
	case c.DeviceLatencyTailProb < 0 || c.DeviceLatencyTailProb > 1:
		return fmt.Errorf("platform: latency tail probability %v must be in [0,1]", c.DeviceLatencyTailProb)
	case c.DeviceLatencyTailProb > 0 && c.DeviceLatencyTailFactor < 1:
		return fmt.Errorf("platform: latency tail factor %v must be >= 1", c.DeviceLatencyTailFactor)
	case c.AccessTimeout < 0:
		return fmt.Errorf("platform: access timeout %v must be non-negative", c.AccessTimeout)
	case c.RetryBackoffFactor < 1:
		return fmt.Errorf("platform: retry backoff factor %v must be >= 1", c.RetryBackoffFactor)
	case c.MaxRetries < 0:
		return fmt.Errorf("platform: max retries %d must be non-negative", c.MaxRetries)
	case c.RetryTimeoutCap < 0:
		return fmt.Errorf("platform: retry timeout cap %v must be non-negative", c.RetryTimeoutCap)
	case c.PCIeReplayPenalty < 0:
		return fmt.Errorf("platform: PCIe replay penalty %v must be non-negative", c.PCIeReplayPenalty)
	case c.CQBackpressureDelay < 0:
		return fmt.Errorf("platform: CQ backpressure delay %v must be non-negative", c.CQBackpressureDelay)
	case c.MetricsWindow < 0:
		return fmt.Errorf("platform: metrics window %v must be non-negative", c.MetricsWindow)
	case c.MetricsMaxWindows < 0:
		return fmt.Errorf("platform: metrics max windows %d must be non-negative", c.MetricsMaxWindows)
	case c.MetricsSink != nil && c.MetricsWindow <= 0:
		return fmt.Errorf("platform: metrics sink set but metrics window disabled")
	}
	return nil
}
