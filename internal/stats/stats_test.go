package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeasurementWorkIPS(t *testing.T) {
	m := Measurement{WorkInstr: 1000, ElapsedSeconds: 2}
	if got := m.WorkIPS(); got != 500 {
		t.Errorf("WorkIPS = %v, want 500", got)
	}
	if got := (Measurement{}).WorkIPS(); got != 0 {
		t.Errorf("zero measurement WorkIPS = %v, want 0", got)
	}
}

func TestMeasurementIterationTime(t *testing.T) {
	m := Measurement{Iterations: 4, ElapsedSeconds: 2}
	if got := m.IterationTime(); got != 0.5 {
		t.Errorf("IterationTime = %v, want 0.5", got)
	}
	if got := (Measurement{}).IterationTime(); got != 0 {
		t.Errorf("zero measurement IterationTime = %v, want 0", got)
	}
}

func TestNormalizedTo(t *testing.T) {
	base := Measurement{WorkInstr: 100, ElapsedSeconds: 1}
	fast := Measurement{WorkInstr: 100, ElapsedSeconds: 0.5}
	if got := fast.NormalizedTo(base); got != 2 {
		t.Errorf("normalized = %v, want 2", got)
	}
	if got := fast.NormalizedTo(Measurement{}); !math.IsNaN(got) {
		t.Errorf("normalized to zero baseline = %v, want NaN", got)
	}
	// Degenerate baselines must yield NaN, never a silent +Inf that
	// poisons a figure cell.
	degenerate := []Measurement{
		{WorkInstr: 100, ElapsedSeconds: 0},           // zero time
		{WorkInstr: 0, ElapsedSeconds: 1},             // zero work
		{WorkInstr: 100, ElapsedSeconds: -1},          // negative time
		{WorkInstr: 100, ElapsedSeconds: math.NaN()},  // corrupt time
		{WorkInstr: 100, ElapsedSeconds: math.Inf(1)}, // infinite time... IPS 0
	}
	for _, b := range degenerate {
		got := fast.NormalizedTo(b)
		if !math.IsNaN(got) {
			t.Errorf("normalized to baseline %+v = %v, want NaN", b, got)
		}
	}
}

func TestSeriesAddRunDiags(t *testing.T) {
	tab := &Table{ID: "t", Title: "t", XLabel: "x", YLabel: "y"}
	s := tab.AddSeries("a")
	s.Add(1, 0.5)
	if s.Diags != nil {
		t.Fatal("plain Add should not mark the series as diagnosed")
	}
	s.AddRun(2, 0.9, RunDiag{Accesses: 3, P99Ns: 1200, SimEvents: 5})
	if len(s.Diags) != 2 || s.Diags[0] != nil {
		t.Fatalf("Diags misaligned: %+v", s.Diags)
	}
	if s.Diags[1].Accesses != 3 || s.Diags[1].P99Ns != 1200 {
		t.Fatalf("Diags[1] = %+v", s.Diags[1])
	}
	if len(s.X) != 2 || s.Y[1] != 0.9 {
		t.Fatalf("series cells: x=%v y=%v", s.X, s.Y)
	}
}

// Property: normalization is the inverse ratio of iteration times when
// work per iteration matches (the identity the paper's two normalized
// metrics rely on, §IV-C).
func TestNormalizationMatchesTimeRatio(t *testing.T) {
	f := func(tDev, tBase uint16) bool {
		if tDev == 0 || tBase == 0 {
			return true
		}
		dev := Measurement{Iterations: 10, WorkInstr: 1000, ElapsedSeconds: float64(tDev)}
		base := Measurement{Iterations: 10, WorkInstr: 1000, ElapsedSeconds: float64(tBase)}
		got := dev.NormalizedTo(base)
		want := base.IterationTime() / dev.IterationTime() * 1 // same work
		return math.Abs(got-want) < 1e-9*math.Abs(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeriesPeakAndSaturation(t *testing.T) {
	s := &Series{}
	for i, y := range []float64{0.1, 0.4, 0.8, 1.0, 1.0, 1.0} {
		s.Add(float64(i+1), y)
	}
	px, py := s.Peak()
	if px != 4 || py != 1.0 {
		t.Errorf("peak = (%v,%v), want (4,1)", px, py)
	}
	if got := s.KneeX(0.95); got != 4 {
		t.Errorf("saturation = %v, want 4", got)
	}
	if got := s.KneeX(0.5); got != 3 {
		t.Errorf("saturation(0.5) = %v, want 3", got)
	}
}

// TestSeriesPayloadsNilOrAligned pins the payload invariant over mixed
// Add/AddRun/Attach sequences: each payload slice stays nil until a
// point carries that payload, and from then on has one entry per
// point, nil where the point carries none.
func TestSeriesPayloadsNilOrAligned(t *testing.T) {
	ts, a, f := &TimeSeries{}, &AttribSummary{}, &FleetSummary{}
	type op func(*Series)
	var (
		add    op = func(s *Series) { s.Add(float64(len(s.X)), 1) }
		run    op = func(s *Series) { s.AddRun(float64(len(s.X)), 1, RunDiag{Accesses: len(s.X)}) }
		metric op = func(s *Series) { s.AttachMetrics(ts) }
		attr   op = func(s *Series) { s.AttachAttrib(a) }
		fleet  op = func(s *Series) { s.AttachFleet(f) }
		noop   op = func(s *Series) { s.AttachMetrics(nil); s.AttachAttrib(nil); s.AttachFleet(nil) }
	)
	// want lists, per payload, the indices of the points that carry it
	// (nil: the slice must stay nil).
	cases := []struct {
		name                       string
		ops                        []op
		diags, metrics, at, fleets []int
	}{
		{"empty", nil, nil, nil, nil, nil},
		{"attach before any point", []op{metric, attr, fleet}, nil, nil, nil, nil},
		{"plain points", []op{add, add, noop, add}, nil, nil, nil, nil},
		{"run after plain", []op{add, add, run}, []int{2}, nil, nil, nil},
		{"plain after run", []op{run, add, add}, []int{0}, nil, nil, nil},
		{"metrics mid-series", []op{add, run, metric, add, run}, []int{1, 3}, []int{1}, nil, nil},
		{"attrib on a plain point", []op{add, add, attr, add}, nil, nil, []int{1}, nil},
		{"fleet on every point", []op{add, fleet, add, fleet}, nil, nil, nil, []int{0, 1}},
		{"all payloads", []op{run, metric, attr, fleet, add, run, attr}, []int{0, 2}, []int{0}, []int{0, 2}, []int{0}},
	}
	for _, tc := range cases {
		var s Series
		for _, o := range tc.ops {
			o(&s)
		}
		check := func(what string, n int, isNil func(i int) bool, sliceNil bool, want []int) {
			if want == nil {
				if !sliceNil {
					t.Errorf("%s: %s should be nil", tc.name, what)
				}
				return
			}
			if n != len(s.X) {
				t.Errorf("%s: %d %s entries for %d points", tc.name, n, what, len(s.X))
				return
			}
			carried := map[int]bool{}
			for _, i := range want {
				carried[i] = true
			}
			for i := 0; i < n; i++ {
				if isNil(i) == carried[i] {
					t.Errorf("%s: %s[%d] carried=%v, want %v", tc.name, what, i, !isNil(i), carried[i])
				}
			}
		}
		check("diags", len(s.Diags), func(i int) bool { return s.Diags[i] == nil }, s.Diags == nil, tc.diags)
		check("metrics", len(s.Metrics), func(i int) bool { return s.Metrics[i] == nil }, s.Metrics == nil, tc.metrics)
		check("attrib", len(s.Attrib), func(i int) bool { return s.Attrib[i] == nil }, s.Attrib == nil, tc.at)
		check("fleet", len(s.Fleet), func(i int) bool { return s.Fleet[i] == nil }, s.Fleet == nil, tc.fleets)
		for i, d := range s.Diags {
			if d != nil && d.Accesses != i {
				t.Errorf("%s: diags[%d] belongs to point %d", tc.name, i, d.Accesses)
			}
		}
	}
}

// TestSeriesPeakSkipsNaN: a null cell, even the first, is never the
// peak, and the knee is measured against the finite peak.
func TestSeriesPeakSkipsNaN(t *testing.T) {
	s := &Series{}
	for i, y := range []float64{math.NaN(), 0.4, math.NaN(), 1.0, 0.9} {
		s.Add(float64(i+1), y)
	}
	if x, y := s.Peak(); x != 4 || y != 1.0 {
		t.Errorf("peak = (%v,%v), want (4,1)", x, y)
	}
	if got := s.KneeX(0.9); got != 4 {
		t.Errorf("knee = %v, want 4", got)
	}
	if got := s.Last(); got != 0.9 {
		t.Errorf("last = %v, want 0.9", got)
	}
	all := &Series{}
	all.Add(1, math.NaN())
	if x, y := all.Peak(); !math.IsNaN(x) || !math.IsNaN(y) || !math.IsNaN(all.KneeX(0.5)) || !math.IsNaN(all.Last()) {
		t.Errorf("all-null series: peak (%v,%v), want NaNs", x, y)
	}
}

func TestSeriesEmptyPeak(t *testing.T) {
	s := &Series{}
	if x, y := s.Peak(); !math.IsNaN(x) || !math.IsNaN(y) {
		t.Errorf("empty peak = (%v,%v), want NaNs", x, y)
	}
	if got := s.KneeX(0.9); !math.IsNaN(got) {
		t.Errorf("empty saturation = %v, want NaN", got)
	}
}

func TestSeriesYAt(t *testing.T) {
	s := &Series{}
	s.Add(1, 10)
	s.Add(2, 20)
	if got := s.YAt(2); got != 20 {
		t.Errorf("YAt(2) = %v, want 20", got)
	}
	if got := s.YAt(3); !math.IsNaN(got) {
		t.Errorf("YAt(3) = %v, want NaN", got)
	}
}

func newSampleTable() *Table {
	tb := &Table{ID: "fig3", Title: "Prefetch-based access", XLabel: "threads", YLabel: "normalized work IPC"}
	a := tb.AddSeries("1us")
	a.Add(1, 0.1)
	a.Add(2, 0.2)
	b := tb.AddSeries("4us")
	b.Add(1, 0.05)
	b.Add(4, 0.2) // different x-grid on purpose
	return tb
}

func TestTableText(t *testing.T) {
	txt := newSampleTable().Text()
	for _, want := range []string{"FIG3", "threads", "1us", "4us", "0.100", "-", "normalized work IPC"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Text() missing %q:\n%s", want, txt)
		}
	}
	// x-union sorted: rows for x = 1, 2, 4.
	lines := strings.Split(strings.TrimSpace(txt), "\n")
	if len(lines) < 6 {
		t.Fatalf("too few lines:\n%s", txt)
	}
}

func TestTableCSV(t *testing.T) {
	csv := newSampleTable().CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "threads,1us,4us" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), csv)
	}
	if lines[1] != "1,0.1,0.05" {
		t.Errorf("row1 = %q", lines[1])
	}
	// Missing points render as empty cells.
	if lines[2] != "2,0.2," {
		t.Errorf("row2 = %q", lines[2])
	}
	if lines[3] != "4,,0.2" {
		t.Errorf("row3 = %q", lines[3])
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := &Table{ID: "x", XLabel: `a,b`}
	s := tb.AddSeries(`quote"label`)
	s.Add(1, 1)
	csv := tb.CSV()
	if !strings.Contains(csv, `"a,b"`) || !strings.Contains(csv, `"quote""label"`) {
		t.Errorf("escaping wrong: %q", csv)
	}
}

func TestTableNotes(t *testing.T) {
	tb := newSampleTable()
	tb.Note("peak at %d threads", 10)
	if len(tb.Notes) != 1 || tb.Notes[0] != "peak at 10 threads" {
		t.Errorf("notes = %v", tb.Notes)
	}
	if !strings.Contains(tb.Text(), "note: peak at 10 threads") {
		t.Error("Text() missing note")
	}
}

func TestFindSeries(t *testing.T) {
	tb := newSampleTable()
	if tb.FindSeries("1us") == nil {
		t.Error("FindSeries failed to find existing series")
	}
	if tb.FindSeries("nope") != nil {
		t.Error("FindSeries found nonexistent series")
	}
}

func TestFormatNum(t *testing.T) {
	if got := formatNum(4); got != "4" {
		t.Errorf("formatNum(4) = %q", got)
	}
	if got := formatNum(2.5); got != "2.5" {
		t.Errorf("formatNum(2.5) = %q", got)
	}
}
