// Package telemetry is the simulator's flight recorder: an always-on,
// low-overhead windowed time-series of what a measured run is doing in
// sim-time. Where internal/trace captures every access lifecycle for
// post-mortem Perfetto inspection (and forces serial execution), the
// recorder keeps only per-window aggregates — throughput, recovery
// counts, queue occupancy, latency percentiles — cheap enough to leave
// enabled across a parallel sweep and small enough to embed in run
// reports and stream live from kurecd.
//
// Determinism rules:
//
//   - Windows are cut purely by sim-time: window i covers
//     [i*W, (i+1)*W). Wall-clock never appears anywhere.
//   - The ring is bounded: when it holds maxWindows sealed windows,
//     adjacent pairs merge (counts add, histograms Merge, occupancy
//     integrals add) and the window span doubles, so any run length
//     fits in fixed storage while still covering t=0 to the end.
//   - Recording is allocation-free on the hot path: counter bumps are
//     an advance check plus an increment; only sealing a window (once
//     per W of sim-time) may allocate, and sealed storage is bounded
//     by maxWindows.
//
// The output is a pure-value stats.TimeSeries, so identical simulated
// runs yield byte-identical series regardless of worker count.
package telemetry

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// GaugeID names one of the recorder's occupancy gauges. Per-core pools
// (LFB, SQ, CQ, runnable) aggregate across cores into a single gauge:
// the recorder tracks the instantaneous sum and its time-weighted mean
// and peak per window.
type GaugeID int

const (
	GaugeLFB GaugeID = iota
	GaugeChip
	GaugeSQ
	GaugeCQ
	GaugeRunnable
	NumGauges
)

// counter indices for the per-window count columns.
const (
	cStarted = iota
	cFinished
	cRetries
	cTimeouts
	cAbandoned
	cSwitches
	numCounters
)

// WindowEvent is one sealed window as published to a Sink, carrying
// everything a live viewer needs without touching the recorder again.
// Index is the per-run seal sequence; note that after a ring
// coalescing later events have a larger SpanPs than earlier ones.
type WindowEvent struct {
	Label   string
	Index   int
	StartPs int64
	SpanPs  int64

	Starts    uint64
	Completes uint64
	Retries   uint64
	Timeouts  uint64
	Abandoned uint64
	Switches  uint64

	P50Ns  float64
	P99Ns  float64
	P999Ns float64

	OccMean [NumGauges]float64
	OccMax  [NumGauges]int
}

// Sink receives sealed windows as the run progresses. PublishWindow is
// called synchronously from the simulation goroutine at window
// boundaries; implementations must be fast and must never block (the
// serve hub drops to a bounded buffer for exactly this reason). A nil
// Sink is valid and costs nothing.
type Sink interface {
	PublishWindow(ev WindowEvent)
}

// gauge tracks one occupancy quantity inside the current window.
type gauge struct {
	val      int
	max      int
	integral float64 // token·picoseconds accumulated this window
	lastAt   sim.Time
}

// sealedWindow is a finished window in the bounded ring.
type sealedWindow struct {
	startPs int64
	spanPs  int64
	counts  [numCounters]uint64
	occInt  [NumGauges]float64
	occMax  [NumGauges]int
	hist    *stats.Histogram
	phases  []int64 // attribution phase sums, ps; nil unless enabled
}

// Recorder accumulates one run's flight-recorder series. It is not
// goroutine-safe: all recording calls must come from the single
// simulation goroutine, which is exactly how core drives it.
//
// A nil *Recorder is a valid disabled recorder: every recording method
// is a no-op and Finish returns nil, so instrumented code calls it
// unconditionally, like trace.Span and attrib.Access.
type Recorder struct {
	label      string
	window     sim.Time
	maxWindows int
	sink       Sink

	curStart  sim.Time
	counts    [numCounters]uint64
	hist      *stats.Histogram
	gauges    [NumGauges]gauge
	sealed    []sealedWindow
	seq       int
	coalesced int
	done      bool

	// Attribution phase columns, present only when SetPhaseNames was
	// called (the run had attribution enabled alongside the recorder).
	phaseNames []string
	phases     []int64 // current window's per-phase ps sums
}

// DefaultMaxWindows bounds the retained ring when the caller passes 0.
const DefaultMaxWindows = 256

// EffectiveMaxWindows normalizes a configured ring bound the way
// NewRecorder does: 0 (or negative) selects DefaultMaxWindows, and the
// result is rounded up to an even value of at least 2 so pair-wise
// coalescing always has whole pairs. Report emitters use it to record
// the bound a recorder actually ran with.
func EffectiveMaxWindows(n int) int {
	if n <= 0 {
		n = DefaultMaxWindows
	}
	if n < 2 {
		n = 2
	}
	if n%2 == 1 {
		n++
	}
	return n
}

// NewRecorder returns a recorder cutting windows of the given sim-time
// span. maxWindows bounds the retained ring (0 selects
// DefaultMaxWindows); it is rounded up to an even value of at least 2
// so pair-wise coalescing always has whole pairs. window must be
// positive. sink may be nil.
func NewRecorder(label string, window sim.Time, maxWindows int, sink Sink) *Recorder {
	if window <= 0 {
		panic("telemetry: window must be positive")
	}
	maxWindows = EffectiveMaxWindows(maxWindows)
	return &Recorder{
		label:      label,
		window:     window,
		maxWindows: maxWindows,
		sink:       sink,
		sealed:     make([]sealedWindow, 0, maxWindows),
	}
}

// advance seals every window whose boundary is at or before at. Events
// with at earlier than the current window start (completion times can
// regress under faulty recovery reordering) fall into the current
// window — sim-time only ever moves the window cursor forward.
func (r *Recorder) advance(at sim.Time) {
	for !r.done && at >= r.curStart+r.window {
		if len(r.sealed) == r.maxWindows {
			r.coalesce()
			continue // window doubled; re-check the boundary
		}
		r.sealWindow(r.curStart + r.window)
	}
}

// sealWindow closes the current window at end (a boundary, or the run
// end for the final partial window), appends it to the ring, and
// publishes it to the sink.
func (r *Recorder) sealWindow(end sim.Time) {
	sw := sealedWindow{
		startPs: int64(r.curStart),
		spanPs:  int64(end - r.curStart),
		counts:  r.counts,
		hist:    r.hist,
	}
	if len(r.phaseNames) > 0 {
		// Every window carries a row (zero-filled when no access closed
		// in it) so the exported columns stay index-aligned.
		if r.phases == nil {
			r.phases = make([]int64, len(r.phaseNames))
		}
		sw.phases = r.phases
		r.phases = nil
	}
	for i := range r.gauges {
		g := &r.gauges[i]
		g.integral += float64(g.val) * float64(end-g.lastAt)
		g.lastAt = end
		sw.occInt[i] = g.integral
		sw.occMax[i] = g.max
		g.integral = 0
		g.max = g.val
	}
	r.sealed = append(r.sealed, sw)
	r.counts = [numCounters]uint64{}
	r.hist = nil
	r.curStart = end
	if r.sink != nil {
		r.sink.PublishWindow(r.event(sw))
	}
	r.seq++
}

// event renders a sealed window for publication.
func (r *Recorder) event(sw sealedWindow) WindowEvent {
	ev := WindowEvent{
		Label:     r.label,
		Index:     r.seq,
		StartPs:   sw.startPs,
		SpanPs:    sw.spanPs,
		Starts:    sw.counts[cStarted],
		Completes: sw.counts[cFinished],
		Retries:   sw.counts[cRetries],
		Timeouts:  sw.counts[cTimeouts],
		Abandoned: sw.counts[cAbandoned],
		Switches:  sw.counts[cSwitches],
		P50Ns:     quantileNs(sw.hist, 0.50),
		P99Ns:     quantileNs(sw.hist, 0.99),
		P999Ns:    quantileNs(sw.hist, 0.999),
	}
	for i := range ev.OccMean {
		ev.OccMean[i] = sw.occInt[i] / float64(sw.spanPs)
		ev.OccMax[i] = sw.occMax[i]
	}
	return ev
}

// coalesce merges adjacent window pairs in place and doubles the
// window span. The sealed prefix always covers [0, curStart) with
// curStart a multiple of the old window times an even count, so the
// doubled grid stays aligned.
func (r *Recorder) coalesce() {
	half := len(r.sealed) / 2
	for i := 0; i < half; i++ {
		a, b := r.sealed[2*i], r.sealed[2*i+1]
		m := sealedWindow{startPs: a.startPs, spanPs: a.spanPs + b.spanPs, hist: a.hist}
		if m.hist == nil {
			m.hist = b.hist
		} else {
			m.hist.Merge(b.hist)
		}
		for c := 0; c < numCounters; c++ {
			m.counts[c] = a.counts[c] + b.counts[c]
		}
		for g := 0; g < int(NumGauges); g++ {
			m.occInt[g] = a.occInt[g] + b.occInt[g]
			m.occMax[g] = a.occMax[g]
			if b.occMax[g] > m.occMax[g] {
				m.occMax[g] = b.occMax[g]
			}
		}
		if a.phases != nil {
			m.phases = a.phases
			for pi, v := range b.phases {
				m.phases[pi] += v
			}
		} else {
			m.phases = b.phases
		}
		r.sealed[i] = m
	}
	// Zero the tail so the dropped halves release their histograms.
	for i := half; i < len(r.sealed); i++ {
		r.sealed[i] = sealedWindow{}
	}
	r.sealed = r.sealed[:half]
	r.window *= 2
	r.coalesced++
}

// count adds n to counter column c of the window holding at.
func (r *Recorder) count(at sim.Time, c, n int) {
	if r == nil {
		return
	}
	r.advance(at)
	r.counts[c] += uint64(n)
}

// Started counts one access entering a mechanism at sim-time at.
func (r *Recorder) Started(at sim.Time) { r.count(at, cStarted, 1) }

// Finished counts one access completing at sim-time at.
func (r *Recorder) Finished(at sim.Time) { r.count(at, cFinished, 1) }

// Sample records one completed-access latency into the current
// window's histogram. at is the (monotone) observation time; lat may
// differ from at minus anything — SWQ completions, for example, post
// earlier than the core drains them.
func (r *Recorder) Sample(at sim.Time, lat sim.Time) {
	if r == nil {
		return
	}
	r.advance(at)
	if r.hist == nil {
		r.hist = stats.NewHistogram()
	}
	r.hist.Record(int64(lat))
}

// Retries counts n retry events at sim-time at.
func (r *Recorder) Retries(at sim.Time, n int) { r.count(at, cRetries, n) }

// Timeouts counts n timeout events at sim-time at.
func (r *Recorder) Timeouts(at sim.Time, n int) { r.count(at, cTimeouts, n) }

// Abandoned counts n abandoned accesses at sim-time at.
func (r *Recorder) Abandoned(at sim.Time, n int) { r.count(at, cAbandoned, n) }

// Switches counts n context switches at sim-time at.
func (r *Recorder) Switches(at sim.Time, n int) { r.count(at, cSwitches, n) }

// SetPhaseNames declares the attribution phase columns the recorder
// will carry: every sealed window then exports a per-phase picosecond
// row index-aligned with these names. Call once, before recording.
func (r *Recorder) SetPhaseNames(names []string) {
	r.phaseNames = append([]string(nil), names...)
}

// PhaseSample adds one closed access's per-phase picosecond breakdown
// to the current window (the window holding the access's close time).
// ps must be index-aligned with the names given to SetPhaseNames.
func (r *Recorder) PhaseSample(at sim.Time, ps []int64) {
	if r == nil {
		return
	}
	r.advance(at)
	if r.phases == nil {
		r.phases = make([]int64, len(r.phaseNames))
	}
	for i := range r.phases {
		r.phases[i] += ps[i]
	}
}

// GaugeAdd moves gauge id by delta at sim-time at, closing out the
// time-weighted integral since the gauge last changed. Callers with
// absolute counter callbacks (pool in-use, run-queue depth) convert to
// deltas with a captured previous value.
func (r *Recorder) GaugeAdd(id GaugeID, at sim.Time, delta int) {
	if r == nil {
		return
	}
	r.advance(at)
	g := &r.gauges[id]
	if at < g.lastAt {
		at = g.lastAt
	}
	g.integral += float64(g.val) * float64(at-g.lastAt)
	g.lastAt = at
	g.val += delta
	if g.val > g.max {
		g.max = g.val
	}
}

// Finish seals everything through end (the run's final sim-time) and
// returns the completed series. The final window is partial unless the
// run ended exactly on a boundary. Finish is idempotent in effect:
// further recording calls are ignored, and a nil recorder returns nil.
func (r *Recorder) Finish(end sim.Time) *stats.TimeSeries {
	if r == nil {
		return nil
	}
	if !r.done {
		r.advance(end)
		if end > r.curStart {
			if len(r.sealed) == r.maxWindows {
				r.coalesce()
			}
			r.sealWindow(end)
		}
		r.done = true
	}
	return r.series()
}

// series renders the sealed ring as a stats.TimeSeries.
func (r *Recorder) series() *stats.TimeSeries {
	n := len(r.sealed)
	ts := &stats.TimeSeries{
		WindowUs:  spanUs(int64(r.window)),
		Coalesced: r.coalesced,

		Starts:    make([]uint64, n),
		Completes: make([]uint64, n),
		Retries:   make([]uint64, n),
		Timeouts:  make([]uint64, n),
		Abandoned: make([]uint64, n),
		Switches:  make([]uint64, n),

		P50Ns:  make([]stats.Float, n),
		P99Ns:  make([]stats.Float, n),
		P999Ns: make([]stats.Float, n),

		LFBMean:      make([]stats.Float, n),
		LFBMax:       make([]int, n),
		ChipMean:     make([]stats.Float, n),
		ChipMax:      make([]int, n),
		SQMean:       make([]stats.Float, n),
		SQMax:        make([]int, n),
		CQMean:       make([]stats.Float, n),
		CQMax:        make([]int, n),
		RunnableMean: make([]stats.Float, n),
		RunnableMax:  make([]int, n),
	}
	if len(r.phaseNames) > 0 {
		ts.PhaseNames = append([]string(nil), r.phaseNames...)
		ts.Phases = make([][]int64, n)
	}
	rollup := stats.NewHistogram()
	for i, sw := range r.sealed {
		ts.Starts[i] = sw.counts[cStarted]
		ts.Completes[i] = sw.counts[cFinished]
		ts.Retries[i] = sw.counts[cRetries]
		ts.Timeouts[i] = sw.counts[cTimeouts]
		ts.Abandoned[i] = sw.counts[cAbandoned]
		ts.Switches[i] = sw.counts[cSwitches]

		ts.P50Ns[i] = stats.Float(quantileNs(sw.hist, 0.50))
		ts.P99Ns[i] = stats.Float(quantileNs(sw.hist, 0.99))
		ts.P999Ns[i] = stats.Float(quantileNs(sw.hist, 0.999))

		span := float64(sw.spanPs)
		ts.LFBMean[i] = stats.Float(sw.occInt[GaugeLFB] / span)
		ts.LFBMax[i] = sw.occMax[GaugeLFB]
		ts.ChipMean[i] = stats.Float(sw.occInt[GaugeChip] / span)
		ts.ChipMax[i] = sw.occMax[GaugeChip]
		ts.SQMean[i] = stats.Float(sw.occInt[GaugeSQ] / span)
		ts.SQMax[i] = sw.occMax[GaugeSQ]
		ts.CQMean[i] = stats.Float(sw.occInt[GaugeCQ] / span)
		ts.CQMax[i] = sw.occMax[GaugeCQ]
		ts.RunnableMean[i] = stats.Float(sw.occInt[GaugeRunnable] / span)
		ts.RunnableMax[i] = sw.occMax[GaugeRunnable]

		if ts.Phases != nil {
			row := make([]int64, len(r.phaseNames))
			copy(row, sw.phases)
			ts.Phases[i] = row
		}

		ts.TotalStarts += sw.counts[cStarted]
		ts.TotalCompletes += sw.counts[cFinished]
		ts.TotalRetries += sw.counts[cRetries]
		ts.TotalTimeouts += sw.counts[cTimeouts]
		ts.TotalAbandoned += sw.counts[cAbandoned]
		ts.TotalSwitches += sw.counts[cSwitches]
		rollup.Merge(sw.hist)

		if i == n-1 {
			ts.LastSpanUs = spanUs(sw.spanPs)
		}
	}
	ts.TotalP50Ns = stats.Float(quantileNs(rollup, 0.50))
	ts.TotalP99Ns = stats.Float(quantileNs(rollup, 0.99))
	ts.TotalP999Ns = stats.Float(quantileNs(rollup, 0.999))
	return ts
}

// quantileNs converts a picosecond-sample quantile to nanoseconds,
// returning 0 for an empty histogram.
func quantileNs(h *stats.Histogram, q float64) float64 {
	if h.Count() == 0 {
		return 0
	}
	return sim.Time(h.Quantile(q)).Nanoseconds()
}

// spanUs converts a window span in picoseconds to the series'
// microseconds.
func spanUs(ps int64) stats.Float {
	return stats.Float(float64(ps) / 1e6)
}
