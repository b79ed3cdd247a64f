package stats

import (
	"strings"
	"testing"
)

// validSeries builds a minimal consistent two-window series.
func validSeries() *TimeSeries {
	return &TimeSeries{
		WindowUs:   10,
		LastSpanUs: 4,
		Starts:     []uint64{3, 1},
		Completes:  []uint64{2, 2},
		Retries:    []uint64{0, 0},
		Timeouts:   []uint64{0, 0},
		Abandoned:  []uint64{0, 0},
		Switches:   []uint64{1, 0},
		P50Ns:      []Float{1000, 1000},
		P99Ns:      []Float{1200, 1100},
		P999Ns:     []Float{1200, 1100},
		LFBMean:    []Float{0.5, 0.25}, LFBMax: []int{1, 1},
		ChipMean: []Float{0, 0}, ChipMax: []int{0, 0},
		SQMean: []Float{0, 0}, SQMax: []int{0, 0},
		CQMean: []Float{0, 0}, CQMax: []int{0, 0},
		RunnableMean: []Float{0, 0}, RunnableMax: []int{0, 0},
	}
}

func TestTimeSeriesValidate(t *testing.T) {
	if err := validSeries().Validate(); err != nil {
		t.Fatalf("valid series rejected: %v", err)
	}

	bad := validSeries()
	bad.WindowUs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero window accepted")
	}

	bad = validSeries()
	bad.LastSpanUs = bad.WindowUs + 1
	if err := bad.Validate(); err == nil {
		t.Error("last span longer than the window accepted")
	}

	bad = validSeries()
	bad.P99Ns = bad.P99Ns[:1]
	err := bad.Validate()
	if err == nil {
		t.Error("misaligned p99 column accepted")
	} else if !strings.Contains(err.Error(), "p99") {
		t.Errorf("misalignment error does not name the column: %v", err)
	}

	bad = validSeries()
	bad.RunnableMax = append(bad.RunnableMax, 9)
	if err := bad.Validate(); err == nil {
		t.Error("overlong gauge column accepted")
	}

	bad = validSeries()
	bad.LastSpanUs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero last span accepted")
	}

	empty := &TimeSeries{WindowUs: 10, LastSpanUs: 4}
	if err := empty.Validate(); err == nil {
		t.Error("series without windows accepted")
	}

	bad = validSeries()
	bad.PhaseNames = []string{"issue", "device"}
	bad.Phases = [][]int64{{1, 2}, {3}}
	if err := bad.Validate(); err == nil {
		t.Error("short phase row accepted")
	}

	bad = validSeries()
	bad.Phases = [][]int64{{1}, {2}}
	if err := bad.Validate(); err == nil {
		t.Error("phase rows without phase names accepted")
	}

	var none *TimeSeries
	if err := none.Validate(); err != nil {
		t.Errorf("nil series rejected: %v", err)
	}
}

func TestTimeSeriesWindowsNilSafe(t *testing.T) {
	var ts *TimeSeries
	if ts.Windows() != 0 {
		t.Error("nil series must report 0 windows")
	}
	if got := validSeries().Windows(); got != 2 {
		t.Errorf("Windows() = %d, want 2", got)
	}
}

func TestSeriesAttachMetrics(t *testing.T) {
	var s Series
	s.AttachMetrics(validSeries()) // before any point: no-op, no panic
	if s.Metrics != nil {
		t.Error("attach to an empty series must be a no-op")
	}
	s.Add(1, 2)
	s.AttachMetrics(nil)
	if s.Metrics != nil {
		t.Error("nil attach must leave the point unmarked")
	}
	s.AddRun(2, 3, RunDiag{Accesses: 7})
	ts := validSeries()
	s.AttachMetrics(ts)
	if s.Metrics[1] != ts || s.Metrics[0] != nil {
		t.Errorf("metrics attach landed wrong: %v", s.Metrics)
	}
	if len(s.Metrics) != len(s.X) {
		t.Errorf("metrics misaligned: %d for %d points", len(s.Metrics), len(s.X))
	}
}
