// Package pcie models the PCIe Gen2 x8 link between the host and the
// FPGA device emulator, together with the chip-level shared queue that
// all cores' memory-mapped device accesses traverse on their way to the
// PCIe controller.
//
// Two properties of this model produce headline results of the paper:
//
//   - The chip-level queue admits at most 14 simultaneous memory-mapped
//     requests, regardless of how many cores issue them (§V-B) — the
//     multicore scaling wall of prefetch-based access (Fig 5).
//   - Each transaction-layer packet carries a 24-byte header, and the
//     software-managed-queue protocol needs several packets per access,
//     so at high request rates only about half of the 4 GB/s carries
//     useful data (§V-C) — the eight-core plateau of Figs 8 and 9.
package pcie

import (
	"sync"

	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Link is a full-duplex PCIe link: two independent directions, each
// serializing packets at the configured bandwidth, plus a fixed
// propagation delay covering the wire, PHY, and controllers on both
// sides.
type Link struct {
	eng  *sim.Engine
	cfg  platform.Config
	down *sim.Server // host -> device
	up   *sim.Server // device -> host
	prop sim.Time
	inj  *fault.Injector

	// tlp[p] is cfg.TLPTime(p) for every payload p the protocol sends,
	// so the per-packet path does no float math. Shared; read only.
	tlp []sim.Time

	trDown trace.Track // TLP slice timeline, host -> device
	trUp   trace.Track // TLP slice timeline, device -> host

	downTotal  int64 // bytes including headers
	downUseful int64 // payload bytes that applications asked for
	upTotal    int64
	upUseful   int64

	free []*packet // packets whose submit has run, for reuse
}

// packet is one TLP held at the sender until its future ready time.
// Its submit callback is bound once, when the packet is first built;
// the packet goes back on its link's free list as soon as submit has
// handed done to the engine, the last use of the packet.
type packet struct {
	l        *Link
	dir      *sim.Server
	tr       trace.Track
	svc      sim.Time
	name     string
	args     string
	done     func()
	submitFn func()
}

// maxTLPTable bounds the service-time table of a link whose
// configured descriptor burst is implausibly large; payloads past the
// table fall back to Config.TLPTime.
const maxTLPTable = 1 << 12

// tlpTables shares service-time tables between links: a sweep builds a
// link per run over a handful of distinct platforms, and a table
// depends only on the bandwidth, the header size and its length. At
// most maxTLPTables are kept; a link of any further platform builds
// its own.
var tlpTables = struct {
	sync.Mutex
	m map[tlpKey][]sim.Time
}{m: map[tlpKey][]sim.Time{}}

const maxTLPTables = 16

type tlpKey struct {
	bandwidth   float64
	header, top int
}

// tlpTable returns cfg.TLPTime(p) for p from 0 to the largest payload
// the protocol sends (a descriptor burst, a response line, a
// completion or the 8-byte doorbell-request flag), capped at
// maxTLPTable entries. Callers must not modify it.
func tlpTable(cfg *platform.Config) []sim.Time {
	top := max(cfg.FetchBurst*cfg.DescriptorBytes, platform.CacheLineBytes, cfg.CompletionBytes, 8)
	key := tlpKey{cfg.PCIeBandwidth, cfg.PCIeHeaderBytes, min(top, maxTLPTable-1)}
	tlpTables.Lock()
	defer tlpTables.Unlock()
	if t, ok := tlpTables.m[key]; ok {
		return t
	}
	t := make([]sim.Time, key.top+1)
	for p := range t {
		t[p] = cfg.TLPTime(p)
	}
	if len(tlpTables.m) < maxTLPTables {
		tlpTables.m[key] = t
	}
	return t
}

// NewLink creates an idle link from the platform description.
func NewLink(eng *sim.Engine, cfg platform.Config) *Link {
	return &Link{
		eng:  eng,
		cfg:  cfg,
		down: eng.NewServer("pcie-down"),
		up:   eng.NewServer("pcie-up"),
		prop: cfg.PCIePropagation,
		tlp:  tlpTable(&cfg),
	}
}

// Propagation returns the one-way propagation delay.
func (l *Link) Propagation() sim.Time { return l.prop }

// TLPTime returns the link's transmission time for one packet carrying
// payload bytes: Config.TLPTime, read from the link's table.
func (l *Link) TLPTime(payload int) sim.Time {
	if uint(payload) < uint(len(l.tlp)) {
		return l.tlp[payload]
	}
	return l.cfg.TLPTime(payload)
}

// SetFaultInjector attaches a fault injector (nil disables injection).
// Subsequent packets may suffer TLP corruption — a link-level replay
// paying a second serialization plus the platform's replay penalty —
// or a transient link stall delaying transmission.
func (l *Link) SetFaultInjector(in *fault.Injector) { l.inj = in }

// SetTrace attaches per-direction trace tracks; every TLP transmission
// is then recorded as a complete slice (with its wire occupancy) and
// injected link faults as instants. Zero tracks disable recording.
func (l *Link) SetTrace(down, up trace.Track) {
	l.trDown = down
	l.trUp = up
}

// SendDown transmits a host-to-device packet with the given payload.
// useful is the subset of payload bytes that is application data (zero
// for protocol traffic such as read requests and doorbells). done fires
// when the packet has fully arrived at the device.
func (l *Link) SendDown(payload, useful int, done func()) {
	l.send(l.down, l.trDown, &l.downTotal, &l.downUseful, l.eng.Now(), payload, useful, done)
}

// SendUp transmits a device-to-host packet; done fires on full arrival
// at the host.
func (l *Link) SendUp(payload, useful int, done func()) {
	l.send(l.up, l.trUp, &l.upTotal, &l.upUseful, l.eng.Now(), payload, useful, done)
}

// SendUpAt is SendUp for a packet that becomes ready for transmission
// only at the given future time — the delay module's precisely timed
// responses (§IV-A).
func (l *Link) SendUpAt(earliest sim.Time, payload, useful int, done func()) {
	l.send(l.up, l.trUp, &l.upTotal, &l.upUseful, earliest, payload, useful, done)
}

func (l *Link) send(dir *sim.Server, tr trace.Track, total, usefulAcc *int64, earliest sim.Time, payload, useful int, done func()) {
	if useful > payload {
		panic("pcie: useful bytes exceed payload")
	}
	*total += int64(payload + l.cfg.PCIeHeaderBytes)
	*usefulAcc += int64(useful)
	svc := l.TLPTime(payload)
	name := "tlp"
	if l.inj.CorruptTLP() {
		// The corrupted TLP is NAKed and replayed at the link level: the
		// wire carries it twice, and recovery adds the replay penalty.
		*total += int64(payload + l.cfg.PCIeHeaderBytes)
		svc = 2*svc + l.cfg.PCIeReplayPenalty
		name = "tlp-replay"
	}
	if st, ok := l.inj.LinkStall(); ok && earliest < l.eng.Now()+st {
		earliest = l.eng.Now() + st
		tr.Instant(l.eng.Now(), "fault-link-stall", "")
	}
	var args string
	if tr.Active() {
		args = trace.Int("payload", int64(payload)) + "," + trace.Int("bytes", int64(payload+l.cfg.PCIeHeaderBytes))
	}
	// A packet with a future ready time is held at the sender until
	// then; the link stays work-conserving for other traffic in the
	// meantime (only the delay module uses future ready times, and its
	// delay is device-internal, not wire occupancy). A packet ready now
	// goes straight onto the wire.
	if earliest <= l.eng.Now() {
		l.transmit(dir, tr, svc, name, args, done)
		return
	}
	var pk *packet
	if n := len(l.free); n > 0 {
		pk = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		pk = &packet{l: l}
		pk.submitFn = pk.submit
	}
	pk.dir, pk.tr, pk.svc, pk.name, pk.args, pk.done = dir, tr, svc, name, args, done
	l.eng.At(earliest, pk.submitFn)
}

// submit puts a held packet on the wire at its ready time and recycles
// it.
func (pk *packet) submit() {
	l, dir, tr, svc, name, args, done := pk.l, pk.dir, pk.tr, pk.svc, pk.name, pk.args, pk.done
	*pk = packet{l: l, submitFn: pk.submitFn}
	l.free = append(l.free, pk)
	l.transmit(dir, tr, svc, name, args, done)
}

// transmit serializes one packet on its direction and schedules done
// for its full arrival at the far end.
func (l *Link) transmit(dir *sim.Server, tr trace.Track, svc sim.Time, name, args string, done func()) {
	start, end := dir.Submit(svc)
	tr.Slice(start, end, name, args)
	l.eng.At(end+l.prop, done)
}

// Stats describes the traffic carried so far in one direction.
type Stats struct {
	TotalBytes  int64
	UsefulBytes int64
	Packets     uint64
	Utilization float64 // busy fraction of the direction's bandwidth
}

// UsefulFraction returns useful bytes over total bytes (0 when idle).
func (s Stats) UsefulFraction() float64 {
	if s.TotalBytes == 0 {
		return 0
	}
	return float64(s.UsefulBytes) / float64(s.TotalBytes)
}

// UsefulBandwidth returns the achieved useful-data rate in bytes/second
// over the elapsed simulated time.
func (s Stats) UsefulBandwidth(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(s.UsefulBytes) / elapsed.Seconds()
}

// Upstream returns device-to-host traffic statistics.
func (l *Link) Upstream() Stats {
	return Stats{TotalBytes: l.upTotal, UsefulBytes: l.upUseful, Packets: l.up.Jobs(), Utilization: l.up.Utilization()}
}

// Downstream returns host-to-device traffic statistics.
func (l *Link) Downstream() Stats {
	return Stats{TotalBytes: l.downTotal, UsefulBytes: l.downUseful, Packets: l.down.Jobs(), Utilization: l.down.Utilization()}
}

// NewChipQueue creates the chip-level shared queue on the MMIO path
// between the cores and the PCIe controller. The paper could not locate
// this queue precisely ("We do not have sufficient visibility into the
// chip") but verified its occupancy limit of 14; we model it as a token
// pool held for the full lifetime of each memory-mapped device access.
func NewChipQueue(eng *sim.Engine, cfg platform.Config) *sim.TokenPool {
	return eng.NewTokenPool("chip-mmio-queue", cfg.ChipQueueMMIO)
}
