package core

import (
	"fmt"

	"repro/internal/attrib"
	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/observe"
	"repro/internal/pcie"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Env is one assembled simulation platform: engine, DRAM, PCIe link,
// chip-level MMIO queue, per-core LFB pools, and the device emulator.
type Env struct {
	eng      *sim.Engine
	cfg      platform.Config
	work     platform.WorkMemo // cfg.WorkTime's last answer, for the executors
	link     *pcie.Link
	chip     *sim.TokenPool
	dram     *mem.DRAM
	dev      *device.Device
	lfb      []*sim.TokenPool
	storeBuf []*sim.TokenPool
	caches   []*cache.Cache // per-core device-line caches; nil entries when disabled

	// faults is nil unless the config enables injection; hosts take the
	// recovery code paths only when it is non-nil, which keeps
	// zero-rate runs bit-identical to fault-free ones.
	faults *fault.Injector

	// tr is nil unless the config attaches a trace recorder; the
	// mechanisms record access spans only when it is non-nil, mirroring
	// the faults idiom so disabled tracing costs one nil check.
	tr     *trace.Run
	trCore []trace.Track // per-core access-span tracks

	// rec is nil unless the config enables the flight recorder
	// (MetricsWindow > 0). A nil recorder ignores every call, so the
	// mechanisms feed it unconditionally through the edge methods.
	rec *telemetry.Recorder

	// at is nil unless the config enables latency attribution; the
	// mechanisms open a per-access phase ledger only when it is
	// non-nil, and a nil probe hands out nil ledgers whose marks are
	// no-ops, so disabled attribution costs one nil check per access.
	at *attrib.Probe

	// c accumulates the run's totals; the edge methods below update it
	// together with the flight recorder.
	c counters

	lineFree []*lineRead // consumed line records, for reuse
}

func NewEnv(cfg platform.Config, backing replay.Backing) *Env {
	eng := sim.NewEngine()
	link := pcie.NewLink(eng, cfg)
	dram := mem.New(eng, cfg.DRAMLatency, cfg.DRAMMaxOutstanding)
	e := &Env{
		eng:  eng,
		cfg:  cfg,
		link: link,
		chip: pcie.NewChipQueue(eng, cfg),
		dram: dram,
		dev:  device.New(eng, cfg, link, dram, backing),
		lfb:  make([]*sim.TokenPool, cfg.Cores),
	}
	e.faults = fault.NewInjector(cfg.Faults)
	link.SetFaultInjector(e.faults)
	e.dev.SetFaultInjector(e.faults)
	e.storeBuf = make([]*sim.TokenPool, cfg.Cores)
	e.caches = make([]*cache.Cache, cfg.Cores)
	for i := range e.lfb {
		e.lfb[i] = eng.NewTokenPool("lfb", cfg.LFBPerCore)
		e.storeBuf[i] = eng.NewTokenPool("storebuf", cfg.StoreBufferEntries)
		if cfg.DeviceCacheLines > 0 {
			e.caches[i] = cache.New(cfg.DeviceCacheLines, cfg.DeviceCacheWays)
		}
	}
	return e
}

// invalidateAll performs the write-invalidate coherence action for a
// device line in every core's cache (§V-C: with the memory-mapped
// interface "the device data is stored in hardware caches and kept
// coherent across cores in the event of a write").
func (e *Env) invalidateAll(addr uint64) {
	for _, c := range e.caches {
		if c != nil {
			c.Invalidate(addr)
		}
	}
}

// counters accumulates per-run totals across all cores.
type counters struct {
	accesses  int
	writes    int
	workInstr int64
	switches  uint64
	finish    sim.Time // time the last core finished

	// per-access host-observed latency samples (issue to data-usable)
	// in a bounded log-bucketed histogram, for the percentile
	// diagnostics; memory is bounded by the latency range, not the
	// access count
	latencies *stats.Histogram

	// recovery accounting (fault-injection runs only)
	retries   uint64 // accesses re-issued after a timeout
	timeouts  uint64 // access timeouts that fired
	abandoned uint64 // accesses given up after the retry budget

	// software-queue path only
	fetchBursts uint64
	emptyBursts uint64
	maxRQDepth  int
}

func (c *counters) recordLatency(l sim.Time) {
	if c.latencies == nil {
		c.latencies = stats.NewHistogram()
	}
	c.latencies.Record(int64(l))
}

func (c *counters) coreFinished(at sim.Time) {
	if at > c.finish {
		c.finish = at
	}
}

// The edge methods below are the one place each access or scheduler
// edge is counted: each bumps the run total and the flight-recorder
// window together, so the two agree by construction. The access edges
// also stamp the access's observer handle at the same instant.

// beginSpan opens the lifecycle span of an access to addr on core
// coreID at at; the zero Span when tracing is off.
func (e *Env) beginSpan(coreID int, addr uint64, at sim.Time) trace.Span {
	if e.tr == nil {
		return trace.Span{}
	}
	return e.trCore[coreID].BeginSpan(at, "access", trace.Hex("addr", addr))
}

// issued counts one access entering a mechanism, closing its issue
// phase.
func (e *Env) issued(at sim.Time, obs observe.Access) {
	e.c.accesses++
	e.rec.Started(at)
	obs.Ledger.To(attrib.PhaseIssue, at)
}

// switched counts one context switch.
func (e *Env) switched(at sim.Time) {
	e.c.switches++
	e.rec.Switches(at, 1)
}

// delivered samples one host-observed access latency, observed at at.
func (e *Env) delivered(at, lat sim.Time) {
	e.c.recordLatency(lat)
	e.rec.Sample(at, lat)
}

// timedOut counts one access timeout that fired.
func (e *Env) timedOut(at sim.Time, obs observe.Access) {
	e.c.timeouts++
	e.rec.Timeouts(at, 1)
	obs.Span.Point(at, "timeout")
}

// retried counts one access re-issued after a timeout.
func (e *Env) retried(at sim.Time) {
	e.c.retries++
	e.rec.Retries(at, 1)
}

// abandoned counts one access given up after the retry budget.
func (e *Env) abandoned(at sim.Time, obs observe.Access) {
	e.c.abandoned++
	e.rec.Abandoned(at, 1)
	obs.Span.Point(at, "abandoned")
}

// Diagnostics exposes the run's internal occupancy and traffic
// statistics; experiments use them for figure notes and tests use them
// to pin the bottleneck mechanics down.
type Diagnostics struct {
	MaxChipQueue   int     // peak occupancy of the 14-entry shared queue
	ChipStalls     uint64  // requests that waited for a chip-queue slot
	MaxLFB         int     // peak per-core LFB occupancy (max over cores)
	LFBStalls      uint64  // prefetches that stalled on a full LFB pool
	Switches       uint64  // user-level context switches
	UpstreamUseful float64 // device->host useful-bytes fraction
	UpstreamGBps   float64 // device->host useful bandwidth, GB/s
	ReplayServed   uint64
	OnDemand       uint64
	FetchBursts    uint64 // SWQ: descriptor DMA bursts issued
	EmptyBursts    uint64 // SWQ: bursts that found no descriptors
	MaxRQDepth     int    // SWQ: request-queue high-water mark
	Writes         int    // posted writes issued (§VII extension)
	CacheHits      uint64 // device-line cache hits (locality extension)
	CacheHitRate   float64

	// Host-observed per-access latency percentiles, in nanoseconds:
	// from request issue/submission until the data is usable by the
	// thread, computed from the bounded log-bucketed histogram (within
	// ~0.4% of the exact sample percentiles). Zero if no accesses were
	// sampled.
	AccessP50Ns  float64
	AccessP99Ns  float64
	AccessP999Ns float64

	// Time-weighted mean occupancy of the paper's bottleneck queues:
	// LFB slots summed across cores, and the chip-level MMIO queue.
	MeanLFBOccupancy  float64
	MeanChipOccupancy float64

	// Simulation-effort and trace-overhead accounting: engine events
	// executed, events left pending after the run (non-zero only on an
	// aborted run), and trace events this run recorded (zero with
	// tracing disabled).
	SimEvents   uint64
	SimPending  int
	TraceEvents uint64

	// Recovery accounting under fault injection: host-side retries,
	// timeouts, and abandoned accesses, plus the faults the injector
	// actually delivered, by layer. All zero in fault-free runs.
	Retries   uint64
	Timeouts  uint64
	Abandoned uint64
	Faults    fault.Counters
}

func (e *Env) diagnostics() Diagnostics {
	c := &e.c
	d := Diagnostics{
		MaxChipQueue: e.chip.MaxInUse(),
		ChipStalls:   e.chip.Stalls(),
		Switches:     c.switches,
		ReplayServed: e.dev.ReplayServed(),
		OnDemand:     e.dev.OnDemandServed(),
		FetchBursts:  c.fetchBursts,
		EmptyBursts:  c.emptyBursts,
		MaxRQDepth:   c.maxRQDepth,
	}
	for _, pool := range e.lfb {
		if pool.MaxInUse() > d.MaxLFB {
			d.MaxLFB = pool.MaxInUse()
		}
		d.LFBStalls += pool.Stalls()
		d.MeanLFBOccupancy += pool.MeanOccupancy()
	}
	d.MeanChipOccupancy = e.chip.MeanOccupancy()
	d.SimEvents = e.eng.Executed()
	d.SimPending = e.eng.Pending()
	d.TraceEvents = e.tr.Events()
	d.Writes = c.writes
	var hits, lookups uint64
	for _, cc := range e.caches {
		if cc != nil {
			hits += cc.Hits()
			lookups += cc.Hits() + cc.Misses()
		}
	}
	d.CacheHits = hits
	if lookups > 0 {
		d.CacheHitRate = float64(hits) / float64(lookups)
	}
	up := e.link.Upstream()
	d.UpstreamUseful = up.UsefulFraction()
	if c.finish > 0 {
		d.UpstreamGBps = float64(up.UsefulBytes) / c.finish.Seconds() / 1e9
	}
	d.AccessP50Ns = sim.Time(c.latencies.Quantile(0.50)).Nanoseconds()
	d.AccessP99Ns = sim.Time(c.latencies.Quantile(0.99)).Nanoseconds()
	d.AccessP999Ns = sim.Time(c.latencies.Quantile(0.999)).Nanoseconds()
	d.Retries = c.retries
	d.Timeouts = c.timeouts
	d.Abandoned = c.abandoned
	d.Faults = e.faults.Counters()
	return d
}

// startTrace attaches the environment to the config's trace recorder
// (a no-op when tracing is disabled): one trace run labeled for this
// measurement, one access-span track per core, TLP timelines on both
// link directions, and occupancy counter tracks for every bottleneck
// queue. The hooks only record state the simulation already computes —
// they never schedule events, so traced and untraced runs are
// timing-identical.
func (e *Env) startTrace(label string) {
	if e.cfg.Trace == nil {
		return
	}
	e.tr = e.cfg.Trace.NewRun(label)
	cores := e.cfg.Cores
	e.trCore = make([]trace.Track, cores)
	for i := 0; i < cores; i++ {
		e.trCore[i] = e.tr.NewTrack(fmt.Sprintf("core%d", i))
	}
	e.link.SetTrace(e.tr.NewTrack("pcie-down"), e.tr.NewTrack("pcie-up"))

	// Occupancy counter tracks start at zero; the gauges sample them on
	// state change.
	for i := 0; i < cores; i++ {
		for _, queue := range [...]string{"lfb", "sq", "cq", "runnable"} {
			e.tr.Counter(0, fmt.Sprintf("%s/core%d", queue, i), 0)
		}
	}
	e.tr.Counter(0, "chipq", 0)
}

// newRecorder returns the flight recorder for one labeled run, nil
// unless the config enables it (MetricsWindow > 0). The recorder only
// aggregates values the simulation already computes and never
// schedules events, so recorded and unrecorded runs are
// timing-identical.
func newRecorder(cfg platform.Config, label string) *telemetry.Recorder {
	if cfg.MetricsWindow <= 0 {
		return nil
	}
	return telemetry.NewRecorder(label, cfg.MetricsWindow, cfg.MetricsMaxWindows, cfg.MetricsSink)
}

// newProbe returns the latency-attribution probe for one labeled run,
// nil unless the config enables it. Like the trace and recorder layers
// it only observes timestamps the simulation already computes and
// never schedules events, so attributed and unattributed runs are
// timing-identical. When the flight recorder is also on, every closed
// ledger feeds the recorder's per-window phase columns.
func newProbe(cfg platform.Config, label string, rec *telemetry.Recorder) *attrib.Probe {
	if !cfg.Attribution {
		return nil
	}
	at := attrib.NewProbe(label)
	if rec != nil {
		rec.SetPhaseNames(attrib.Names())
		at.SetOnClose(func(end sim.Time, ph *[attrib.NumPhases]int64) {
			rec.PhaseSample(end, ph[:])
		})
	}
	return at
}

// gauge returns a state-change observer for one occupancy quantity,
// feeding the trace counter track (absolute value) and the recorder
// gauge (delta from the previous sample). It reads the engine clock
// because queue transitions happen in both core and device contexts.
// It returns nil when neither layer is attached, so an unobserved
// hook costs its owner one nil check.
func (e *Env) gauge(id telemetry.GaugeID, track string) func(int) {
	if e.tr == nil && e.rec == nil {
		return nil
	}
	prev := 0
	return func(n int) {
		e.tr.Counter(e.eng.Now(), track, n)
		e.rec.GaugeAdd(id, e.eng.Now(), n-prev)
		prev = n
	}
}

// startObservability attaches every enabled observability layer — the
// Perfetto trace run, the flight recorder, the attribution probe, and
// the occupancy gauges on the LFB pools and the chip-level queue — for
// one measured run.
func (e *Env) startObservability(label string) {
	e.startTrace(label)
	e.rec = newRecorder(e.cfg, label)
	e.at = newProbe(e.cfg, label, e.rec)
	for i, pool := range e.lfb {
		pool.SetOnChange(e.gauge(telemetry.GaugeLFB, fmt.Sprintf("lfb/core%d", i)))
	}
	e.chip.SetOnChange(e.gauge(telemetry.GaugeChip, "chipq"))
}
