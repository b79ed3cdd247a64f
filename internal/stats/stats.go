// Package stats provides the result containers used by the experiment
// harness: measurement summaries, (x, y) series, and tables that mirror
// the layout of the paper's figures. Tables render as aligned text for
// terminals and as CSV for plotting.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Measurement summarizes one simulation run of a workload under one
// mechanism: how much work retired in how much simulated time.
type Measurement struct {
	Label          string  // e.g. "prefetch lat=1us threads=10"
	Iterations     int     // benchmark loop iterations measured
	Accesses       int     // device/DRAM accesses performed
	WorkInstr      float64 // work instructions retired
	ElapsedSeconds float64 // simulated wall time

	// Recovery accounting under fault injection (zero otherwise).
	Retries   uint64 // accesses re-issued after a timeout
	Timeouts  uint64 // access timeouts that fired
	Abandoned uint64 // accesses given up after the retry budget

	// Host-observed per-access latency percentiles in nanoseconds, from
	// the bounded log-bucketed histogram (zero when no accesses were
	// sampled).
	AccessP50Ns  float64
	AccessP99Ns  float64
	AccessP999Ns float64

	// Time-weighted mean occupancy of the paper's two bottleneck queues
	// over the run: Line Fill Buffer slots summed across cores, and the
	// chip-level MMIO queue. Zero for runs without an engine (the
	// analytic on-demand model).
	MeanLFBOccupancy  float64
	MeanChipOccupancy float64
}

// WorkIPS returns work instructions retired per second of simulated
// time; the paper's "work IPC" differs from it only by the constant
// cycle time, which cancels in normalization.
func (m Measurement) WorkIPS() float64 {
	if m.ElapsedSeconds <= 0 {
		return 0
	}
	return m.WorkInstr / m.ElapsedSeconds
}

// IterationTime returns the average seconds per benchmark iteration.
func (m Measurement) IterationTime() float64 {
	if m.Iterations == 0 {
		return 0
	}
	return m.ElapsedSeconds / float64(m.Iterations)
}

// NormalizedTo returns the paper's "normalized work IPC": this
// measurement's work throughput divided by the baseline's (§IV-C). For
// application benchmarks both sides execute the same iteration count, so
// this equals the paper's "normalized performance" (baseline execution
// time over device execution time).
//
// A zero, negative, or non-finite baseline throughput (an empty or
// corrupt baseline run) yields NaN, never ±Inf: NaN renders as "-" in
// text tables, as an empty cell in CSV, and as null in JSON reports, so
// a broken baseline is visible instead of leaking an infinity into
// downstream ratios.
func (m Measurement) NormalizedTo(baseline Measurement) float64 {
	b := baseline.WorkIPS()
	if b <= 0 || math.IsInf(b, 0) || math.IsNaN(b) {
		return math.NaN()
	}
	return m.WorkIPS() / b
}

// RunDiag is the per-datapoint diagnostic payload a series can carry
// into machine-readable reports: the slice of core.Diagnostics that
// explains one measured cell, filled by the experiment harness (stats
// cannot import core, which imports stats).
type RunDiag struct {
	Accesses int `json:"accesses"` // device/DRAM accesses performed

	// Host-observed per-access latency percentiles.
	P50Ns  Float `json:"p50_ns"`
	P99Ns  Float `json:"p99_ns"`
	P999Ns Float `json:"p999_ns"`

	MeanLFBOccupancy  Float  `json:"mean_lfb_occupancy"`  // time-weighted mean LFB slots in use (all cores)
	MeanChipOccupancy Float  `json:"mean_chip_occupancy"` // time-weighted mean chip-level MMIO queue occupancy
	SimEvents         uint64 `json:"sim_events"`          // engine events executed for this run
}

// Series is one labeled curve in a figure: y-values sampled at x-values.
// Diags, when a point was added with AddRun, holds the per-point run
// diagnostics; it is index-aligned with X/Y and nil-padded for points
// added without diagnostics. Metrics likewise holds the per-point
// flight-recorder time series when the run recorded one, attached with
// AttachMetrics after the point is added, and Attrib the per-point
// latency-attribution summary, attached with AttachAttrib.
type Series struct {
	Label   string
	X       []float64
	Y       []float64
	Diags   []*RunDiag
	Metrics []*TimeSeries
	Attrib  []*AttribSummary
	Fleet   []*FleetSummary
}

// Add appends a point without diagnostics.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
	s.Diags = append(s.Diags, nil)
	s.Metrics = append(s.Metrics, nil)
	s.Attrib = append(s.Attrib, nil)
	s.Fleet = append(s.Fleet, nil)
}

// AddRun appends a measured point together with its run diagnostics.
func (s *Series) AddRun(x, y float64, d RunDiag) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
	s.Diags = append(s.Diags, &d)
	s.Metrics = append(s.Metrics, nil)
	s.Attrib = append(s.Attrib, nil)
	s.Fleet = append(s.Fleet, nil)
}

// AttachMetrics attaches a flight-recorder series to the most recently
// added point; a nil ts is a no-op, so callers can pass the run's
// Series field unconditionally.
func (s *Series) AttachMetrics(ts *TimeSeries) {
	if ts == nil || len(s.Metrics) == 0 {
		return
	}
	s.Metrics[len(s.Metrics)-1] = ts
}

// HasDiags reports whether any point carries run diagnostics.
func (s *Series) HasDiags() bool {
	for _, d := range s.Diags {
		if d != nil {
			return true
		}
	}
	return false
}

// HasMetrics reports whether any point carries a flight-recorder
// series.
func (s *Series) HasMetrics() bool {
	for _, ts := range s.Metrics {
		if ts != nil {
			return true
		}
	}
	return false
}

// AttachAttrib attaches an attribution summary to the most recently
// added point; a nil summary is a no-op, so callers can pass the run's
// Attrib field unconditionally.
func (s *Series) AttachAttrib(a *AttribSummary) {
	if a == nil || len(s.Attrib) == 0 {
		return
	}
	s.Attrib[len(s.Attrib)-1] = a
}

// HasAttrib reports whether any point carries an attribution summary.
func (s *Series) HasAttrib() bool {
	for _, a := range s.Attrib {
		if a != nil {
			return true
		}
	}
	return false
}

// AttachFleet attaches a fleet summary to the most recently added
// point; a nil summary is a no-op, so callers can pass the run's Fleet
// field unconditionally.
func (s *Series) AttachFleet(f *FleetSummary) {
	if f == nil || len(s.Fleet) == 0 {
		return
	}
	s.Fleet[len(s.Fleet)-1] = f
}

// HasFleet reports whether any point carries a fleet summary.
func (s *Series) HasFleet() bool {
	for _, f := range s.Fleet {
		if f != nil {
			return true
		}
	}
	return false
}

// Peak returns the maximum y value and the x at which it occurs.
// It returns NaNs for an empty series.
func (s *Series) Peak() (x, y float64) {
	if len(s.Y) == 0 {
		return math.NaN(), math.NaN()
	}
	x, y = s.X[0], s.Y[0]
	for i := range s.Y {
		if s.Y[i] > y {
			x, y = s.X[i], s.Y[i]
		}
	}
	return x, y
}

// SaturationX returns the smallest x at which y reaches frac of the
// series peak — the "knee" used to report where a curve saturates.
func (s *Series) SaturationX(frac float64) float64 {
	_, peak := s.Peak()
	if math.IsNaN(peak) {
		return math.NaN()
	}
	for i := range s.Y {
		if s.Y[i] >= frac*peak {
			return s.X[i]
		}
	}
	return math.NaN()
}

// YAt returns the y value at the given x, or NaN if absent.
func (s *Series) YAt(x float64) float64 {
	for i := range s.X {
		if s.X[i] == x {
			return s.Y[i]
		}
	}
	return math.NaN()
}

// Table is a figure-shaped result: multiple series over a shared x-axis
// meaning (e.g. "threads per core") plus captions.
type Table struct {
	ID     string // e.g. "fig3"
	Title  string
	XLabel string
	YLabel string
	Series []*Series
	Notes  []string // free-form observations recorded by the experiment
}

// AddSeries creates, registers, and returns a new series.
func (t *Table) AddSeries(label string) *Series {
	s := &Series{Label: label}
	t.Series = append(t.Series, s)
	return s
}

// FindSeries returns the series with the given label, or nil.
func (t *Table) FindSeries(label string) *Series {
	for _, s := range t.Series {
		if s.Label == label {
			return s
		}
	}
	return nil
}

// Note records a free-form observation that renders under the table.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// xs returns the sorted union of all x values across series.
func (t *Table) xs() []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range t.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

// Text renders the table as aligned columns: one row per x value, one
// column per series.
func (t *Table) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", strings.ToUpper(t.ID), t.Title)
	xs := t.xs()

	headers := make([]string, 0, len(t.Series)+1)
	headers = append(headers, t.XLabel)
	for _, s := range t.Series {
		headers = append(headers, s.Label)
	}
	rows := [][]string{headers}
	for _, x := range xs {
		row := []string{formatNum(x)}
		for _, s := range t.Series {
			y := s.YAt(x)
			if math.IsNaN(y) {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.3f", y))
			}
		}
		rows = append(rows, row)
	}

	widths := make([]int, len(headers))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			total := 0
			for _, w := range widths {
				total += w + 2
			}
			b.WriteString(strings.Repeat("-", total-2))
			b.WriteByte('\n')
		}
	}
	if t.YLabel != "" {
		fmt.Fprintf(&b, "(y: %s)\n", t.YLabel)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(t.XLabel))
	for _, s := range t.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Label))
	}
	b.WriteByte('\n')
	for _, x := range t.xs() {
		b.WriteString(formatNum(x))
		for _, s := range t.Series {
			b.WriteByte(',')
			y := s.YAt(x)
			if !math.IsNaN(y) {
				fmt.Fprintf(&b, "%.6g", y)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func formatNum(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e9 {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}
