package stats

import "fmt"

// TimeSeries is the flight-recorder output for one measured run: a
// bounded sequence of contiguous sim-time windows starting at t=0, each
// summarizing throughput, recovery activity, queue occupancy, and
// latency percentiles for its span. It is a pure value type (plain
// exported fields, no histograms, gob- and JSON-friendly) so it can
// ride inside core.Result through the result cache and serialize into
// run reports as it is; the recording machinery that produces it lives
// in internal/telemetry.
//
// All per-window slices are index-aligned. Window i covers
// [i*WindowUs, (i+1)*WindowUs) except the last, whose actual span is
// LastSpanUs (the run rarely ends exactly on a window boundary). When
// the recorder's ring filled up, adjacent windows were pair-wise
// coalesced and the window doubled — Coalesced counts the doublings —
// so the series always covers the whole run with bounded storage.
type TimeSeries struct {
	WindowUs   Float `json:"window_us"`           // final window span, microseconds
	LastSpanUs Float `json:"last_span_us"`        // actual span of the final (possibly partial) window
	Coalesced  int   `json:"coalesced,omitempty"` // number of times the ring doubled its window

	// Per-window event counts.
	Starts    []uint64 `json:"starts"`
	Completes []uint64 `json:"completes"`
	Retries   []uint64 `json:"retries"`
	Timeouts  []uint64 `json:"timeouts"`
	Abandoned []uint64 `json:"abandoned"`
	Switches  []uint64 `json:"switches"`

	// Per-window latency percentiles, nanoseconds (0 when the window
	// completed no accesses).
	P50Ns  []Float `json:"p50_ns"`
	P99Ns  []Float `json:"p99_ns"`
	P999Ns []Float `json:"p999_ns"`

	// Per-window occupancy: time-weighted mean and peak over the
	// window span, summed across cores for the per-core pools.
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

	// Attribution phase columns, present only when the run had both
	// the flight recorder and the attribution ledger enabled.
	// PhaseNames names the columns in taxonomy order; Phases[i] holds
	// window i's per-phase picosecond sums (over accesses that closed
	// in the window), index-aligned with PhaseNames.
	PhaseNames []string  `json:"phase_names,omitempty"`
	Phases     [][]int64 `json:"phases,omitempty"`

	// Whole-run rollups. The percentile totals come from merging every
	// window histogram (stats.Histogram.Merge), not from re-recording.
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

// Validate checks the structural invariants: a positive window span, a
// last span in (0, window], at least one window, every per-window
// slice aligned with Starts, and phase rows matching the phase names.
// A nil series (a cell that recorded none) is valid.
func (ts *TimeSeries) Validate() error {
	if ts == nil {
		return nil
	}
	if ts.WindowUs <= 0 {
		return fmt.Errorf("timeseries: window_us %v not positive", float64(ts.WindowUs))
	}
	if ts.LastSpanUs <= 0 || ts.LastSpanUs > ts.WindowUs {
		return fmt.Errorf("timeseries: last_span_us %v outside (0, %v]",
			float64(ts.LastSpanUs), float64(ts.WindowUs))
	}
	n := len(ts.Starts)
	if n == 0 {
		return fmt.Errorf("timeseries: no windows")
	}
	// Columns in name order.
	for _, c := range []struct {
		name string
		len  int
	}{
		{"abandoned", len(ts.Abandoned)},
		{"chipq_max", len(ts.ChipMax)},
		{"chipq_mean", len(ts.ChipMean)},
		{"completes", len(ts.Completes)},
		{"cq_max", len(ts.CQMax)},
		{"cq_mean", len(ts.CQMean)},
		{"lfb_max", len(ts.LFBMax)},
		{"lfb_mean", len(ts.LFBMean)},
		{"p50_ns", len(ts.P50Ns)},
		{"p999_ns", len(ts.P999Ns)},
		{"p99_ns", len(ts.P99Ns)},
		{"retries", len(ts.Retries)},
		{"runnable_max", len(ts.RunnableMax)},
		{"runnable_mean", len(ts.RunnableMean)},
		{"sq_max", len(ts.SQMax)},
		{"sq_mean", len(ts.SQMean)},
		{"switches", len(ts.Switches)},
		{"timeouts", len(ts.Timeouts)},
	} {
		if c.len != n {
			return fmt.Errorf("timeseries: %d %s windows for %d starts windows", c.len, c.name, n)
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
