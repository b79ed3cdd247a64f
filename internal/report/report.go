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
	"os"
	"runtime"

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

// The report's tables, series and per-cell payloads are the stats
// types, serialized as they are: their fields carry the report's JSON
// tags and every float cell is a Float. A series carries a payload key
// only when some cell has that payload (see stats.Series).
type (
	Table         = stats.Table
	Series        = stats.Series
	Diag          = stats.RunDiag
	TimeSeries    = stats.TimeSeries
	AttribSummary = stats.AttribSummary
	PhaseSum      = stats.PhaseSum
	FleetSummary  = stats.FleetSummary
	FleetInstance = stats.FleetInstance
)

// Table returns the table with the given ID, or nil.
func (r *Report) Table(id string) *Table {
	for _, t := range r.Tables {
		if t.ID == id {
			return t
		}
	}
	return nil
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
				if err := ts.Validate(); err != nil {
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
