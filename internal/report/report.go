// Package report defines the versioned, machine-readable run-report
// schema of the experiment harness: every `killerusec` sweep can be
// exported as one self-describing JSON artifact holding the per-figure
// cell values, the full sweep parameterization, the platform constants
// of the paper's Table I, per-run diagnostics, and build metadata.
//
// Reports are the substrate of the results-observability pipeline:
// internal/expect evaluates the paper's qualitative claims against
// them, and `kurec check` diffs two reports cell-by-cell to gate
// regressions in CI. Like the trace layer, report emission is
// deterministic: the same seed and flags produce a byte-identical file
// (fields marshal in declaration order, NaN cells render as null, and
// no wall-clock timestamps are recorded).
package report

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"

	"repro/internal/platform"
	"repro/internal/stats"
)

// SchemaName identifies the document type; Version is bumped on any
// incompatible change to the layout below.
const (
	SchemaName    = "killerusec-report"
	SchemaVersion = 1
)

// Float is the report's JSON-safe cell type (NaN and ±Inf as null);
// see stats.Float.
type Float = stats.Float

// Report is one sweep's complete machine-readable artifact.
type Report struct {
	Schema   string   `json:"schema"`
	Version  int      `json:"version"`
	Tool     string   `json:"tool"`
	Build    Build    `json:"build"`
	Platform Platform `json:"platform"`
	Sweep    Sweep    `json:"sweep"`
	// Timeseries describes the flight-recorder configuration when the
	// sweep ran with -metrics; nil (and omitted) otherwise, so reports
	// without telemetry stay byte-identical to the pre-telemetry
	// schema.
	Timeseries *TimeseriesMeta `json:"timeseries,omitempty"`
	// Attribution describes the latency-attribution taxonomy when the
	// sweep ran with -attrib; nil (and omitted) otherwise, so reports
	// without attribution stay byte-identical to the pre-attribution
	// schema.
	Attribution *AttributionMeta `json:"attribution,omitempty"`
	// Cluster describes the fleet-simulation layer when the sweep ran
	// cluster experiments; nil (and omitted) otherwise, so reports
	// without fleet tables stay byte-identical to the pre-cluster
	// schema.
	Cluster *ClusterMeta `json:"cluster,omitempty"`
	Tables  []*Table     `json:"tables"`
}

// ClusterVersion is bumped on any incompatible change to the per-cell
// FleetSummary layout (stats.FleetSummary) or to the policy/shape
// vocabulary.
const ClusterVersion = 1

// ClusterMeta stamps the fleet-simulation vocabulary of a sweep that
// ran cluster experiments: the routing policies and arrival shapes the
// per-cell fleet summaries draw from.
type ClusterMeta struct {
	Version  int      `json:"version"`
	Policies []string `json:"policies"`
	Shapes   []string `json:"shapes"`
}

// TimeseriesVersion is bumped on any incompatible change to the
// per-cell TimeSeries layout below.
const TimeseriesVersion = 1

// TimeseriesMeta stamps the recorder parameters of a -metrics sweep.
type TimeseriesMeta struct {
	Version    int     `json:"version"`
	WindowUs   float64 `json:"window_us"`
	MaxWindows int     `json:"max_windows"`
}

// AttributionVersion is bumped on any incompatible change to the
// per-cell AttribSummary layout (stats.AttribSummary) or to the phase
// taxonomy.
const AttributionVersion = 1

// AttributionMeta stamps the phase taxonomy of a -attrib sweep: the
// canonical slug order every per-cell summary (and every per-window
// phase column) follows.
type AttributionMeta struct {
	Version int      `json:"version"`
	Phases  []string `json:"phases"`
}

// Build stamps the environment that produced the report. Wall-clock
// timestamps are deliberately absent: determinism requires that the
// same seed and flags yield byte-identical reports.
type Build struct {
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	Module    string `json:"module"`
}

// CurrentBuild returns the build stamp of the running binary.
func CurrentBuild() Build {
	return Build{
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		Module:    "repro",
	}
}

// Platform restates the paper's Table I constants (and the handful of
// calibrated costs that shape every figure) from platform.Config, in
// report-friendly units.
type Platform struct {
	CPUFreqGHz        float64 `json:"cpu_freq_ghz"`
	IssueWidth        int     `json:"issue_width"`
	WindowSize        int     `json:"window_size"`
	WorkIPC           float64 `json:"work_ipc"`
	LFBPerCore        int     `json:"lfb_per_core"`
	ChipQueueMMIO     int     `json:"chip_queue_mmio"`
	DRAMLatencyNs     float64 `json:"dram_latency_ns"`
	PCIeBandwidthGBps float64 `json:"pcie_bandwidth_gbps"`
	PCIePropagationNs float64 `json:"pcie_propagation_ns"`
	DeviceLatencyNs   float64 `json:"device_latency_ns"`
	CtxSwitchNs       float64 `json:"ctx_switch_ns"`
	FetchBurst        int     `json:"fetch_burst"`
	DescriptorBytes   int     `json:"descriptor_bytes"`
}

// PlatformFrom extracts the report's platform stamp from a config.
func PlatformFrom(c platform.Config) Platform {
	return Platform{
		CPUFreqGHz:        c.CPUFreqGHz,
		IssueWidth:        c.IssueWidth,
		WindowSize:        c.WindowSize,
		WorkIPC:           c.WorkIPC,
		LFBPerCore:        c.LFBPerCore,
		ChipQueueMMIO:     c.ChipQueueMMIO,
		DRAMLatencyNs:     c.DRAMLatency.Nanoseconds(),
		PCIeBandwidthGBps: c.PCIeBandwidth / 1e9,
		PCIePropagationNs: c.PCIePropagation.Nanoseconds(),
		DeviceLatencyNs:   c.DeviceLatency.Nanoseconds(),
		CtxSwitchNs:       c.CtxSwitch.Nanoseconds(),
		FetchBurst:        c.FetchBurst,
		DescriptorBytes:   c.DescriptorBytes,
	}
}

// Sweep records the full parameterization of the run, enough to
// reproduce it: `killerusec` flags plus the constants the experiment
// code bakes in (latency sweep, work counts, MLP levels, the graph
// generator seed).
type Sweep struct {
	Quick         bool      `json:"quick"`
	Iterations    int       `json:"iterations"`
	AppLookups    int       `json:"app_lookups"`
	Threads       []int     `json:"threads"`
	UseReplay     bool      `json:"use_replay"`
	LatenciesUs   []float64 `json:"latencies_us"`
	WorkCounts    []int     `json:"work_counts"`
	MLPLevels     []int     `json:"mlp_levels"`
	KroneckerSeed int64     `json:"kronecker_seed"`
}

// Table mirrors stats.Table: one figure-shaped result.
type Table struct {
	ID     string    `json:"id"`
	Title  string    `json:"title"`
	XLabel string    `json:"x_label"`
	YLabel string    `json:"y_label"`
	Notes  []string  `json:"notes,omitempty"`
	Series []*Series `json:"series"`
}

// Series is one labeled curve: X[i] maps to Y[i]; Diags, when present,
// is index-aligned with X and holds the per-cell run diagnostics (null
// entries for cells measured without an engine). Metrics, present only
// in -metrics sweeps, is likewise index-aligned and carries each
// cell's flight-recorder time series (null for cells that record none,
// e.g. DRAM baselines). Attrib, present only in -attrib sweeps, is
// likewise index-aligned and carries each cell's latency-attribution
// summary (null for cells measured without an engine).
type Series struct {
	Label   string           `json:"label"`
	X       []Float          `json:"x"`
	Y       []Float          `json:"y"`
	Diags   []*Diag          `json:"diags,omitempty"`
	Metrics []*TimeSeries    `json:"metrics,omitempty"`
	Attrib  []*AttribSummary `json:"attrib,omitempty"`
	// Fleet, present only in cluster tables, is likewise index-aligned
	// and carries each cell's fleet summary.
	Fleet []*FleetSummary `json:"fleet,omitempty"`
}

// The per-cell diagnostic, attribution and fleet payloads are the
// stats types, serialized as they are: their fields carry the report's
// JSON tags and every float is a Float.
type (
	Diag          = stats.RunDiag
	AttribSummary = stats.AttribSummary
	PhaseSum      = stats.PhaseSum
	FleetSummary  = stats.FleetSummary
	FleetInstance = stats.FleetInstance
)

// TimeSeries is stats.TimeSeries converted into report units:
// microseconds for window spans, nanoseconds for latencies. It is the
// one per-cell payload the report restates rather than serializing the
// stats type as it is, because stats holds window spans in integer
// picoseconds and per-window values as raw float64 slices, while the
// report's schema carries microsecond spans and Float cells. All
// per-window arrays are index-aligned; window i covers
// [i*window_us, (i+1)*window_us) except the last, whose actual span is
// last_span_us.
type TimeSeries struct {
	WindowUs   Float `json:"window_us"`
	LastSpanUs Float `json:"last_span_us"`
	Coalesced  int   `json:"coalesced,omitempty"`

	Starts    []uint64 `json:"starts"`
	Completes []uint64 `json:"completes"`
	Retries   []uint64 `json:"retries"`
	Timeouts  []uint64 `json:"timeouts"`
	Abandoned []uint64 `json:"abandoned"`
	Switches  []uint64 `json:"switches"`

	P50Ns  []Float `json:"p50_ns"`
	P99Ns  []Float `json:"p99_ns"`
	P999Ns []Float `json:"p999_ns"`

	LFBMean      []Float `json:"lfb_mean"`
	LFBMax       []int   `json:"lfb_max"`
	ChipMean     []Float `json:"chipq_mean"`
	ChipMax      []int   `json:"chipq_max"`
	SQMean       []Float `json:"sq_mean"`
	SQMax        []int   `json:"sq_max"`
	CQMean       []Float `json:"cq_mean"`
	CQMax        []int   `json:"cq_max"`
	RunnableMean []Float `json:"runnable_mean"`
	RunnableMax  []int   `json:"runnable_max"`

	// Per-window latency-attribution phase columns, present only when
	// the sweep ran with both -metrics and -attrib: PhaseNames is the
	// taxonomy order and Phases[w][p] the exact picoseconds windows w's
	// completed accesses spent in phase p.
	PhaseNames []string  `json:"phase_names,omitempty"`
	Phases     [][]int64 `json:"phases,omitempty"`

	TotalStarts    uint64 `json:"total_starts"`
	TotalCompletes uint64 `json:"total_completes"`
	TotalRetries   uint64 `json:"total_retries"`
	TotalTimeouts  uint64 `json:"total_timeouts"`
	TotalAbandoned uint64 `json:"total_abandoned"`
	TotalSwitches  uint64 `json:"total_switches"`
	TotalP50Ns     Float  `json:"total_p50_ns"`
	TotalP99Ns     Float  `json:"total_p99_ns"`
	TotalP999Ns    Float  `json:"total_p999_ns"`
}

// Windows returns the number of recorded windows.
func (ts *TimeSeries) Windows() int {
	if ts == nil {
		return 0
	}
	return len(ts.Starts)
}

// FromTables converts harness tables (with any per-point payloads they
// carry) into report tables. Diag, attribution and fleet payloads are
// handed through as they are, sharing the stats values; only the
// flight-recorder series is converted.
func FromTables(tables []*stats.Table) []*Table {
	out := make([]*Table, 0, len(tables))
	for _, t := range tables {
		rt := &Table{
			ID:     t.ID,
			Title:  t.Title,
			XLabel: t.XLabel,
			YLabel: t.YLabel,
			Notes:  append([]string(nil), t.Notes...),
		}
		for _, s := range t.Series {
			rs := &Series{Label: s.Label}
			for i := range s.X {
				rs.X = append(rs.X, Float(s.X[i]))
				rs.Y = append(rs.Y, Float(s.Y[i]))
			}
			if s.HasDiags() {
				rs.Diags = s.Diags
			}
			if s.HasMetrics() {
				for _, ts := range s.Metrics {
					rs.Metrics = append(rs.Metrics, fromTimeSeries(ts))
				}
			}
			if s.HasAttrib() {
				rs.Attrib = s.Attrib
			}
			if s.HasFleet() {
				rs.Fleet = s.Fleet
			}
			rt.Series = append(rt.Series, rs)
		}
		out = append(out, rt)
	}
	return out
}

// fromTimeSeries converts a stats.TimeSeries (picoseconds, raw floats)
// to the report layout (microsecond window spans, Float cells). A nil
// input stays nil — the cell recorded no telemetry.
func fromTimeSeries(ts *stats.TimeSeries) *TimeSeries {
	if ts == nil {
		return nil
	}
	toFloats := func(vs []float64) []Float {
		out := make([]Float, len(vs))
		for i, v := range vs {
			out[i] = Float(v)
		}
		return out
	}
	return &TimeSeries{
		WindowUs:   Float(float64(ts.WindowPs) / 1e6),
		LastSpanUs: Float(float64(ts.LastSpanPs) / 1e6),
		Coalesced:  ts.Coalesced,

		Starts:    append([]uint64(nil), ts.Starts...),
		Completes: append([]uint64(nil), ts.Completes...),
		Retries:   append([]uint64(nil), ts.Retries...),
		Timeouts:  append([]uint64(nil), ts.Timeouts...),
		Abandoned: append([]uint64(nil), ts.Abandoned...),
		Switches:  append([]uint64(nil), ts.Switches...),

		P50Ns:  toFloats(ts.P50Ns),
		P99Ns:  toFloats(ts.P99Ns),
		P999Ns: toFloats(ts.P999Ns),

		LFBMean:      toFloats(ts.LFBMean),
		LFBMax:       append([]int(nil), ts.LFBMax...),
		ChipMean:     toFloats(ts.ChipMean),
		ChipMax:      append([]int(nil), ts.ChipMax...),
		SQMean:       toFloats(ts.SQMean),
		SQMax:        append([]int(nil), ts.SQMax...),
		CQMean:       toFloats(ts.CQMean),
		CQMax:        append([]int(nil), ts.CQMax...),
		RunnableMean: toFloats(ts.RunnableMean),
		RunnableMax:  append([]int(nil), ts.RunnableMax...),

		PhaseNames: append([]string(nil), ts.PhaseNames...),
		Phases:     copyPhaseRows(ts.Phases),

		TotalStarts:    ts.TotalStarts,
		TotalCompletes: ts.TotalCompletes,
		TotalRetries:   ts.TotalRetries,
		TotalTimeouts:  ts.TotalTimeouts,
		TotalAbandoned: ts.TotalAbandoned,
		TotalSwitches:  ts.TotalSwitches,
		TotalP50Ns:     Float(ts.TotalP50Ns),
		TotalP99Ns:     Float(ts.TotalP99Ns),
		TotalP999Ns:    Float(ts.TotalP999Ns),
	}
}

// copyPhaseRows deep-copies the per-window phase matrix.
func copyPhaseRows(rows [][]int64) [][]int64 {
	if rows == nil {
		return nil
	}
	out := make([][]int64, len(rows))
	for i, row := range rows {
		out[i] = append([]int64(nil), row...)
	}
	return out
}

// Table returns the table with the given ID, or nil.
func (r *Report) Table(id string) *Table {
	for _, t := range r.Tables {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// FindSeries returns the series with the given label, or nil.
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

// Peak returns the maximum finite y and the x where it occurs (NaNs for
// a series with no finite cells).
func (s *Series) Peak() (x, y float64) {
	x, y = math.NaN(), math.NaN()
	if s == nil {
		return
	}
	for i := range s.Y {
		v := float64(s.Y[i])
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(y) || v > y {
			x, y = float64(s.X[i]), v
		}
	}
	return
}

// KneeX returns the smallest x at which y reaches frac of the series
// peak — the saturation knee.
func (s *Series) KneeX(frac float64) float64 {
	_, peak := s.Peak()
	if math.IsNaN(peak) {
		return math.NaN()
	}
	for i := range s.Y {
		v := float64(s.Y[i])
		if !math.IsNaN(v) && v >= frac*peak {
			return float64(s.X[i])
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
		if !math.IsNaN(float64(s.Y[i])) {
			return float64(s.Y[i])
		}
	}
	return math.NaN()
}

// Cells returns the number of datapoints in the series.
func (s *Series) Cells() int {
	if s == nil {
		return 0
	}
	return len(s.Y)
}

// Validate reports the first schema violation, or nil. It checks the
// document identity, version, table/series shape invariants, and
// diagnostic alignment — everything `kurec check` gates on before
// evaluating claims or diffs.
func (r *Report) Validate() error {
	if r.Schema != SchemaName {
		return fmt.Errorf("report: schema %q, want %q", r.Schema, SchemaName)
	}
	if r.Version != SchemaVersion {
		return fmt.Errorf("report: schema version %d, want %d", r.Version, SchemaVersion)
	}
	if r.Tool == "" {
		return fmt.Errorf("report: empty tool")
	}
	if len(r.Tables) == 0 {
		return fmt.Errorf("report: no tables")
	}
	seen := map[string]bool{}
	for ti, t := range r.Tables {
		if t == nil {
			return fmt.Errorf("report: table %d is null", ti)
		}
		if t.ID == "" {
			return fmt.Errorf("report: table %d has no id", ti)
		}
		if seen[t.ID] {
			return fmt.Errorf("report: duplicate table id %q", t.ID)
		}
		seen[t.ID] = true
		if len(t.Series) == 0 {
			return fmt.Errorf("report: table %q has no series", t.ID)
		}
		labels := map[string]bool{}
		for si, s := range t.Series {
			if s == nil {
				return fmt.Errorf("report: table %q series %d is null", t.ID, si)
			}
			if s.Label == "" {
				return fmt.Errorf("report: table %q series %d has no label", t.ID, si)
			}
			if labels[s.Label] {
				return fmt.Errorf("report: table %q has duplicate series %q", t.ID, s.Label)
			}
			labels[s.Label] = true
			if len(s.X) != len(s.Y) {
				return fmt.Errorf("report: table %q series %q: %d x values, %d y values",
					t.ID, s.Label, len(s.X), len(s.Y))
			}
			if len(s.X) == 0 {
				return fmt.Errorf("report: table %q series %q is empty", t.ID, s.Label)
			}
			if s.Diags != nil && len(s.Diags) != len(s.X) {
				return fmt.Errorf("report: table %q series %q: %d diags for %d cells",
					t.ID, s.Label, len(s.Diags), len(s.X))
			}
			if s.Metrics != nil && len(s.Metrics) != len(s.X) {
				return fmt.Errorf("report: table %q series %q: %d metrics for %d cells",
					t.ID, s.Label, len(s.Metrics), len(s.X))
			}
			for mi, ts := range s.Metrics {
				if ts == nil {
					continue
				}
				if r.Timeseries == nil {
					return fmt.Errorf("report: table %q series %q cell %d has metrics but the report has no timeseries block",
						t.ID, s.Label, mi)
				}
				if err := ts.validate(); err != nil {
					return fmt.Errorf("report: table %q series %q cell %d: %v",
						t.ID, s.Label, mi, err)
				}
			}
			if s.Attrib != nil && len(s.Attrib) != len(s.X) {
				return fmt.Errorf("report: table %q series %q: %d attrib entries for %d cells",
					t.ID, s.Label, len(s.Attrib), len(s.X))
			}
			for ai, a := range s.Attrib {
				if a == nil {
					continue
				}
				if r.Attribution == nil {
					return fmt.Errorf("report: table %q series %q cell %d has attribution but the report has no attribution block",
						t.ID, s.Label, ai)
				}
				if err := a.Validate(); err != nil {
					return fmt.Errorf("report: table %q series %q cell %d: %v",
						t.ID, s.Label, ai, err)
				}
			}
			if s.Fleet != nil && len(s.Fleet) != len(s.X) {
				return fmt.Errorf("report: table %q series %q: %d fleet entries for %d cells",
					t.ID, s.Label, len(s.Fleet), len(s.X))
			}
			for fi, f := range s.Fleet {
				if f == nil {
					continue
				}
				if r.Cluster == nil {
					return fmt.Errorf("report: table %q series %q cell %d has a fleet summary but the report has no cluster block",
						t.ID, s.Label, fi)
				}
				if err := f.Validate(); err != nil {
					return fmt.Errorf("report: table %q series %q cell %d: %v",
						t.ID, s.Label, fi, err)
				}
			}
			for i, x := range s.X {
				if x.IsNaN() {
					return fmt.Errorf("report: table %q series %q: x[%d] is null", t.ID, s.Label, i)
				}
			}
		}
	}
	if r.Timeseries != nil && r.Timeseries.Version != TimeseriesVersion {
		return fmt.Errorf("report: timeseries version %d, want %d",
			r.Timeseries.Version, TimeseriesVersion)
	}
	if r.Attribution != nil {
		if r.Attribution.Version != AttributionVersion {
			return fmt.Errorf("report: attribution version %d, want %d",
				r.Attribution.Version, AttributionVersion)
		}
		if len(r.Attribution.Phases) == 0 {
			return fmt.Errorf("report: attribution block has no phases")
		}
	}
	if r.Cluster != nil {
		if r.Cluster.Version != ClusterVersion {
			return fmt.Errorf("report: cluster version %d, want %d",
				r.Cluster.Version, ClusterVersion)
		}
		if len(r.Cluster.Policies) == 0 {
			return fmt.Errorf("report: cluster block has no policies")
		}
		if len(r.Cluster.Shapes) == 0 {
			return fmt.Errorf("report: cluster block has no shapes")
		}
	}
	return nil
}

// validate checks the internal shape of one flight-recorder series:
// positive window span, a last span no longer than the window, and all
// per-window arrays aligned with the starts array.
func (ts *TimeSeries) validate() error {
	if ts.WindowUs <= 0 {
		return fmt.Errorf("timeseries: window_us %v not positive", float64(ts.WindowUs))
	}
	if ts.LastSpanUs <= 0 || float64(ts.LastSpanUs) > float64(ts.WindowUs) {
		return fmt.Errorf("timeseries: last_span_us %v outside (0, %v]",
			float64(ts.LastSpanUs), float64(ts.WindowUs))
	}
	n := len(ts.Starts)
	if n == 0 {
		return fmt.Errorf("timeseries: no windows")
	}
	counts := map[string]int{
		"completes": len(ts.Completes), "retries": len(ts.Retries),
		"timeouts": len(ts.Timeouts), "abandoned": len(ts.Abandoned),
		"switches": len(ts.Switches),
		"p50_ns":   len(ts.P50Ns), "p99_ns": len(ts.P99Ns), "p999_ns": len(ts.P999Ns),
		"lfb_mean": len(ts.LFBMean), "lfb_max": len(ts.LFBMax),
		"chipq_mean": len(ts.ChipMean), "chipq_max": len(ts.ChipMax),
		"sq_mean": len(ts.SQMean), "sq_max": len(ts.SQMax),
		"cq_mean": len(ts.CQMean), "cq_max": len(ts.CQMax),
		"runnable_mean": len(ts.RunnableMean), "runnable_max": len(ts.RunnableMax),
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if counts[name] != n {
			return fmt.Errorf("timeseries: %d %s windows for %d starts windows", counts[name], name, n)
		}
	}
	if len(ts.PhaseNames) > 0 {
		if len(ts.Phases) != n {
			return fmt.Errorf("timeseries: %d phase windows for %d starts windows", len(ts.Phases), n)
		}
		for w, row := range ts.Phases {
			if len(row) != len(ts.PhaseNames) {
				return fmt.Errorf("timeseries: phase window %d has %d columns for %d phase names",
					w, len(row), len(ts.PhaseNames))
			}
		}
	} else if len(ts.Phases) != 0 {
		return fmt.Errorf("timeseries: %d phase windows but no phase names", len(ts.Phases))
	}
	return nil
}

// CellCount returns the total number of datapoints across all tables.
func (r *Report) CellCount() (tables, series, cells int) {
	tables = len(r.Tables)
	for _, t := range r.Tables {
		series += len(t.Series)
		for _, s := range t.Series {
			cells += len(s.Y)
		}
	}
	return
}

// Encode marshals the report as indented JSON with a trailing newline.
// Encoding is deterministic: struct fields marshal in declaration
// order and the document carries no timestamps, so identical runs
// produce identical bytes.
func (r *Report) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile encodes the report to path.
func (r *Report) WriteFile(path string) error {
	b, err := r.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadFile parses and validates a report file.
func ReadFile(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
