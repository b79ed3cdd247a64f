// Package stats provides the result containers used by the experiment
// harness: measurement summaries, (x, y) series, and tables that mirror
// the layout of the paper's figures. Tables render as aligned text for
// terminals and as CSV for plotting, and they and their per-point
// payloads are the run report's tables, serialized as they are.
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

// Series is one labeled curve in a figure: y-values sampled at
// x-values. It is also the report's series, serialized as it is.
//
// The payload slices (Diags, Metrics, Attrib, Fleet) are nil until a
// point carries that payload; from then on they are index-aligned with
// X, holding nil for the points without one. Diags is set by AddRun,
// the others by the Attach methods after the point is added. A nil
// slice is omitted from the report, so a series carries a payload key
// only when some cell has that payload.
type Series struct {
	Label   string           `json:"label"`
	X       []Float          `json:"x"`
	Y       []Float          `json:"y"`
	Diags   []*RunDiag       `json:"diags,omitempty"`
	Metrics []*TimeSeries    `json:"metrics,omitempty"`
	Attrib  []*AttribSummary `json:"attrib,omitempty"`
	Fleet   []*FleetSummary  `json:"fleet,omitempty"`
}

// Add appends a point without payloads.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, Float(x))
	s.Y = append(s.Y, Float(y))
	if s.Diags != nil {
		s.Diags = append(s.Diags, nil)
	}
	if s.Metrics != nil {
		s.Metrics = append(s.Metrics, nil)
	}
	if s.Attrib != nil {
		s.Attrib = append(s.Attrib, nil)
	}
	if s.Fleet != nil {
		s.Fleet = append(s.Fleet, nil)
	}
}

// AddRun appends a measured point together with its run diagnostics.
func (s *Series) AddRun(x, y float64, d RunDiag) {
	s.Add(x, y)
	s.Diags = attach(s.Diags, len(s.X), &d)
}

// AttachMetrics attaches a flight-recorder series to the most recently
// added point; a nil ts is a no-op, so callers can pass the run's
// Series field unconditionally.
func (s *Series) AttachMetrics(ts *TimeSeries) {
	s.Metrics = attach(s.Metrics, len(s.X), ts)
}

// AttachAttrib attaches an attribution summary to the most recently
// added point; a nil summary is a no-op, so callers can pass the run's
// Attrib field unconditionally.
func (s *Series) AttachAttrib(a *AttribSummary) {
	s.Attrib = attach(s.Attrib, len(s.X), a)
}

// AttachFleet attaches a fleet summary to the most recently added
// point; a nil summary is a no-op, so callers can pass the run's Fleet
// field unconditionally.
func (s *Series) AttachFleet(f *FleetSummary) {
	s.Fleet = attach(s.Fleet, len(s.X), f)
}

// attach sets the payload of point n-1, first growing a nil payload
// slice to n nil entries. A nil payload, or a series without points,
// leaves ps as it is.
func attach[T any](ps []*T, n int, p *T) []*T {
	if p == nil || n == 0 {
		return ps
	}
	if ps == nil {
		ps = make([]*T, n)
	}
	ps[n-1] = p
	return ps
}

// Peak returns the maximum finite y and the x where it occurs (NaNs
// for a nil series or one with no finite cells).
func (s *Series) Peak() (x, y float64) {
	x, y = math.NaN(), math.NaN()
	if s == nil {
		return
	}
	for i, v := range s.Y {
		if !v.IsNaN() && (math.IsNaN(y) || float64(v) > y) {
			x, y = float64(s.X[i]), float64(v)
		}
	}
	return
}

// KneeX returns the smallest x at which y reaches frac of the series
// peak — the "knee" used to report where a curve saturates.
func (s *Series) KneeX(frac float64) float64 {
	_, peak := s.Peak()
	if math.IsNaN(peak) {
		return math.NaN()
	}
	for i, v := range s.Y {
		if float64(v) >= frac*peak {
			return float64(s.X[i])
		}
	}
	return math.NaN()
}

// YAt returns the y value at the given x, or NaN if absent.
func (s *Series) YAt(x float64) float64 {
	if s == nil {
		return math.NaN()
	}
	for i := range s.X {
		if float64(s.X[i]) == x {
			return float64(s.Y[i])
		}
	}
	return math.NaN()
}

// Last returns the y value at the largest x with a finite cell.
func (s *Series) Last() float64 {
	if s == nil {
		return math.NaN()
	}
	for i := len(s.Y) - 1; i >= 0; i-- {
		if !s.Y[i].IsNaN() {
			return float64(s.Y[i])
		}
	}
	return math.NaN()
}

// FleetAt returns the fleet summary attached at the given x, or nil.
func (s *Series) FleetAt(x float64) *FleetSummary {
	if s == nil {
		return nil
	}
	for i := range s.X {
		if float64(s.X[i]) == x && i < len(s.Fleet) {
			return s.Fleet[i]
		}
	}
	return nil
}

// Table is a figure-shaped result: multiple series over a shared x-axis
// meaning (e.g. "threads per core") plus captions. It is also the
// report's table, serialized as it is.
type Table struct {
	ID     string    `json:"id"` // e.g. "fig3"
	Title  string    `json:"title"`
	XLabel string    `json:"x_label"`
	YLabel string    `json:"y_label"`
	Notes  []string  `json:"notes,omitempty"` // free-form observations recorded by the experiment
	Series []*Series `json:"series"`
}

// AddSeries creates, registers, and returns a new series.
func (t *Table) AddSeries(label string) *Series {
	s := &Series{Label: label}
	t.Series = append(t.Series, s)
	return s
}

// FindSeries returns the series with the given label, or nil (also
// for a nil table).
func (t *Table) FindSeries(label string) *Series {
	if t == nil {
		return nil
	}
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
			if v := float64(x); !seen[v] {
				seen[v] = true
				xs = append(xs, v)
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
