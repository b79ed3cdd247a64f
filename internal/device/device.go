// Package device implements the microsecond-latency storage device
// emulator of §IV-A (Fig 1), translated from the paper's Altera DE5-Net
// FPGA design into simulation components:
//
//   - a memory-mapped frontend (request dispatcher + per-core replay
//     modules + delay modules) serving cache-line reads with precisely
//     controlled end-to-end latency,
//   - per-core request fetchers implementing the software-managed-queue
//     protocol (burst descriptor DMA reads, doorbell-request flag,
//     response-data and completion writes),
//   - an on-demand module that serves requests the replay modules cannot
//     match, from a dataset copy in a separate on-board DRAM channel,
//   - a DMA preload engine that loads recorded access sequences into
//     on-board DRAM before a measured run.
//
// As in the paper, the emulator is deliberately over-provisioned: its
// internal logic never limits the number of in-flight accesses, so every
// bottleneck observed in an experiment is attributable to the host
// (§IV-A: "the internal device logic does not become the limiting
// factor").
package device

import (
	"fmt"

	"repro/internal/attrib"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/observe"
	"repro/internal/pcie"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/sim"
)

// OnDemandDRAMLatency is the access latency of the dataset copy in the
// separate on-board DRAM channel used by the on-demand module. The
// paper notes this DDR3-800 interface "has high latency" (§IV-A); it is
// only tolerable because spurious requests are rare and the channel is
// lightly loaded.
const OnDemandDRAMLatency = 150 * sim.Nanosecond

// OnBoardDRAMBytes is the capacity available for recorded sequences.
const OnBoardDRAMBytes = 4 << 30

// preloadChunk is the DMA transfer granularity for recording preloads.
const preloadChunk = 256

// Device is the emulator instance shared by all cores.
type Device struct {
	eng      *sim.Engine
	cfg      platform.Config
	link     *pcie.Link
	hostDRAM *mem.DRAM
	backing  replay.Backing // dataset copy for the on-demand module

	modules     map[int]*replay.Module   // per-core replay modules
	recorders   map[int]*replay.Recorder // per-core recording-run capture
	loadedBytes int64

	replayServed   uint64
	directServed   uint64
	onDemandServed uint64
	writesServed   uint64

	reqCounter uint64 // per-request latency-tail draw (deterministic)

	inj *fault.Injector

	readFree []*mmioRead // MMIO read records whose responses all landed, for reuse
}

// New creates a device with no recordings loaded. backing is the
// authoritative dataset copy used by the on-demand module; hostDRAM is
// the host memory the request fetchers DMA against.
func New(eng *sim.Engine, cfg platform.Config, link *pcie.Link, hostDRAM *mem.DRAM, backing replay.Backing) *Device {
	return &Device{
		eng:       eng,
		cfg:       cfg,
		link:      link,
		hostDRAM:  hostDRAM,
		backing:   backing,
		modules:   map[int]*replay.Module{},
		recorders: map[int]*replay.Recorder{},
	}
}

// LoadRecording installs a recording for coreID's replay module with the
// given per-core address offset (§IV-A: the same sequence can be reused
// across cores "after applying an address offset"). It reports an error
// if on-board DRAM capacity would be exceeded.
func (d *Device) LoadRecording(coreID int, rec *replay.Recording, offset uint64) error {
	if err := d.reserve(coreID, rec); err != nil {
		return err
	}
	d.modules[coreID] = replay.NewModule(rec, d.cfg.ReplayWindow, offset)
	return nil
}

// KeepRecording stops recording for coreID and charges the captured
// sequence against on-board DRAM capacity exactly as LoadRecording
// would, without building a replay module: for a run that recorded its
// own sequence there is nothing left to replay it to.
func (d *Device) KeepRecording(coreID int) error {
	return d.reserve(coreID, d.TakeRecording(coreID))
}

// reserve charges rec against on-board DRAM capacity.
func (d *Device) reserve(coreID int, rec *replay.Recording) error {
	if d.loadedBytes+rec.Bytes() > OnBoardDRAMBytes {
		return fmt.Errorf("device: recording for core %d (%d bytes) exceeds on-board DRAM capacity", coreID, rec.Bytes())
	}
	d.loadedBytes += rec.Bytes()
	return nil
}

// PreloadCost returns the simulated time the DMA engine needs to
// transfer a recording into on-board DRAM over PCIe, in preloadChunk
// payloads. The harness charges this before starting a measured run.
func (d *Device) PreloadCost(rec *replay.Recording) sim.Time {
	chunks := (rec.Bytes() + preloadChunk - 1) / preloadChunk
	return sim.Time(chunks) * d.cfg.TLPTime(preloadChunk)
}

// Module returns coreID's replay module (nil if none is loaded).
func (d *Device) Module(coreID int) *replay.Module { return d.modules[coreID] }

// ReplayServed returns how many requests the replay modules matched
// (including recording-run captures).
func (d *Device) ReplayServed() uint64 { return d.replayServed }

// DirectServed returns how many requests were served in ideal
// backing-only mode (no recording loaded for the core).
func (d *Device) DirectServed() uint64 { return d.directServed }

// OnDemandServed returns how many requests fell through a replay module
// to the on-demand module — wrong-path/spurious requests in the paper's
// terms (§IV-A).
func (d *Device) OnDemandServed() uint64 { return d.onDemandServed }

// EnableRecording puts coreID into recording mode: requests are served
// directly from the backing dataset (at replay-path timing, since the
// recording run's measurements are discarded) while their (addr, data)
// sequence is captured. This is the first of the paper's two runs per
// experiment (§IV-A), or, without faults, the measured run itself.
func (d *Device) EnableRecording(coreID int) {
	d.recorders[coreID] = replay.NewRecorder(d.backing, &replay.Recording{})
}

// TakeRecording stops recording for coreID and returns the captured
// sequence, ready to be loaded (typically into a fresh Device for the
// measured run) with LoadRecording.
func (d *Device) TakeRecording(coreID int) *replay.Recording {
	r := d.recorders[coreID]
	delete(d.recorders, coreID)
	if r == nil {
		return nil
	}
	return r.Recording()
}

// serve produces the response line for one request and reports whether
// it came through the fast path (recording capture, replay match, or
// ideal backing-only mode) or needed the on-demand module's slow
// dataset-DRAM detour (a replay-window miss: a wrong-path or otherwise
// unrecorded request, §IV-A).
func (d *Device) serve(coreID int, addr uint64) ([]byte, bool) {
	if rec := d.recorders[coreID]; rec != nil {
		d.replayServed++
		return rec.ReadLine(addr), true
	}
	if m := d.modules[coreID]; m != nil {
		if data, ok := m.Lookup(addr); ok {
			d.replayServed++
			return data, true
		}
		d.onDemandServed++
		return d.backing.ReadLine(addr), false
	}
	// Ideal mode: no recording loaded; the backing store answers at
	// replay-path timing. Used by workloads whose access pattern needs
	// no recording fidelity (the microbenchmark).
	d.directServed++
	return d.backing.ReadLine(addr), true
}

// effectiveLatency draws the end-to-end latency for the next request:
// the configured DeviceLatency, or — with the latency-tail extension
// enabled — a deterministic pseudo-random outlier of
// DeviceLatency x DeviceLatencyTailFactor with probability
// DeviceLatencyTailProb.
func (d *Device) effectiveLatency() sim.Time {
	d.reqCounter++
	if d.cfg.DeviceLatencyTailProb <= 0 {
		return d.cfg.DeviceLatency
	}
	// splitmix64 of the request index gives a reproducible uniform draw.
	x := d.reqCounter * 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	if float64(x)/float64(^uint64(0)) < d.cfg.DeviceLatencyTailProb {
		return sim.Time(float64(d.cfg.DeviceLatency) * d.cfg.DeviceLatencyTailFactor)
	}
	return d.cfg.DeviceLatency
}

// SetFaultInjector attaches a fault injector (nil disables injection).
// Subsequent requests may straggle far beyond the latency-tail model,
// lose their response entirely, or deliver it twice.
func (d *Device) SetFaultInjector(in *fault.Injector) { d.inj = in }

// WritesServed returns how many posted writes the device absorbed.
func (d *Device) WritesServed() uint64 { return d.writesServed }

// MMIORead performs one memory-mapped cache-line read on behalf of
// coreID, starting now (the issue time at the core). done receives the
// line when the response has fully arrived back at the host. obs is the
// read's observer handle (the zero handle when nothing observes it):
// the device stamps its serve and fault edges on the span, request
// arrival closes the ledger's downstream-transit interval and the
// response-send time its device-service interval; the upstream transit
// is closed by the host when the data lands.
//
// The delay module targets an end-to-end latency of exactly
// cfg.DeviceLatency, inclusive of the PCIe round trip (§IV-A); link
// congestion or an on-demand-module detour can only push the response
// later, never earlier.
func (d *Device) MMIORead(coreID int, addr uint64, obs observe.Access, done func(data []byte)) {
	var r *mmioRead
	if n := len(d.readFree); n > 0 {
		r = d.readFree[n-1]
		d.readFree = d.readFree[:n-1]
	} else {
		r = &mmioRead{d: d}
		r.arrivedFn = r.arrived
		r.respondedFn = r.responded
	}
	r.coreID, r.addr, r.obs, r.done = coreID, addr, obs, done
	r.issue = d.eng.Now()
	r.latency = d.effectiveLatency()
	if f, ok := d.inj.Straggle(); ok {
		r.latency = sim.Time(float64(r.latency) * f)
		obs.Span.Point(r.issue, "fault-straggle")
	}
	// Read-request TLP travels downstream (header only).
	d.link.SendDown(0, 0, r.arrivedFn)
}

// mmioRead is one memory-mapped read in flight through the device. Its
// callbacks are bound once, when the record is first built. The record
// goes back on the device's free list after its last response has
// landed; a read whose response the fault injector drops never calls
// back again and is left to the garbage collector.
type mmioRead struct {
	d       *Device
	coreID  int
	addr    uint64
	obs     observe.Access
	done    func(data []byte)
	issue   sim.Time
	latency sim.Time
	sendAt  sim.Time
	data    []byte

	responses int // responses sent and not yet landed

	arrivedFn   func()
	respondedFn func()
}

// arrived serves the request when it reaches the device and sends the
// response (twice, under an injected duplicate).
func (r *mmioRead) arrived() {
	d, sp := r.d, r.obs.Span
	now := d.eng.Now()
	r.obs.Mark(now, "req-at-device", attrib.PhaseTransit)
	data, fromReplay := d.serve(r.coreID, r.addr)
	// The delay module timestamps the request and computes when the
	// response must leave so it lands at issue + latency.
	sendAt := r.issue + r.latency - d.link.Propagation() - d.cfg.TLPTime(platform.CacheLineBytes)
	if fromReplay {
		sp.Point(now, "serve-replay")
	} else {
		// On-demand detour: the dataset DRAM read must finish first.
		sp.Point(now, "serve-ondemand")
		earliest := now + OnDemandDRAMLatency
		if earliest > sendAt {
			sendAt = earliest
		}
	}
	if sendAt < now {
		sendAt = now
	}
	if d.inj.DropCompletion() {
		// Response lost in the device; the host's timeout recovers.
		sp.Point(now, "fault-drop")
		return
	}
	sp.Point(sendAt, "resp-sent")
	r.data, r.sendAt, r.responses = data, sendAt, 1
	d.link.SendUpAt(sendAt, platform.CacheLineBytes, platform.CacheLineBytes, r.respondedFn)
	if d.inj.Duplicate() {
		// Spurious second response; the host must tolerate it.
		sp.Point(sendAt, "fault-duplicate")
		r.responses++
		d.link.SendUpAt(sendAt, platform.CacheLineBytes, platform.CacheLineBytes, r.respondedFn)
	}
}

// responded delivers one response that has fully arrived at the host,
// recycling the record after the last one.
func (r *mmioRead) responded() {
	// The delay-module wait until sendAt was device service. Marked at
	// arrival (never future-dated) so a straggling attempt's response
	// cannot corrupt a ledger the host already closed or re-issued.
	r.obs.Ledger.To(attrib.PhaseDevice, r.sendAt)
	r.done(r.data)
	if r.responses--; r.responses == 0 {
		d := r.d
		*r = mmioRead{d: d, arrivedFn: r.arrivedFn, respondedFn: r.respondedFn}
		d.readFree = append(d.readFree, r)
	}
}

// MMIOWrite posts one memory-mapped cache-line write (§VII extension):
// a write TLP carries the line downstream; posted fires when the packet
// has drained onto the link (the store buffer can then release its
// entry). No response is generated.
func (d *Device) MMIOWrite(coreID int, addr uint64, posted func()) {
	d.writesServed++
	d.link.SendDown(platform.CacheLineBytes, platform.CacheLineBytes, posted)
}
