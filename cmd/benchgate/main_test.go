package main

import (
	"strings"
	"testing"
)

// TestParseBenchBestOfEach: across -count repetitions the rate keeps
// its maximum and allocs/op its minimum, each independently.
func TestParseBenchBestOfEach(t *testing.T) {
	in := `goos: linux
BenchmarkAccess/prefetch-2   200  1100000 ns/op  450000 accesses/sec  211487 B/op  870 allocs/op
BenchmarkAccess/prefetch-2   199  1000000 ns/op  470000 accesses/sec  211489 B/op  880 allocs/op
BenchmarkAccess/prefetch-2   210  1200000 ns/op  430000 accesses/sec  211400 B/op  857 allocs/op
BenchmarkNoRate-2            100  5000 ns/op  12 allocs/op
PASS
`
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := got["BenchmarkAccess/prefetch"]
	if !ok || len(got) != 1 {
		t.Fatalf("parsed %v, want only BenchmarkAccess/prefetch", got)
	}
	if e.Rate != 470000 || e.Allocs != 857 || e.Procs != 2 || e.Metric != "accesses/sec" {
		t.Errorf("entry %+v, want rate 470000, allocs 857, procs 2, accesses/sec", e)
	}
}

// TestUpdateRecordsMedianRate: -update writes the median of the
// repetitions' rates, so one fast outlier does not set a floor above
// the typical run, while the comparison still takes the best.
func TestUpdateRecordsMedianRate(t *testing.T) {
	in := `BenchmarkAccess/kernelq-2   30  3000000 ns/op  351593 accesses/sec  900 allocs/op
BenchmarkAccess/kernelq-2   30  3100000 ns/op  325576 accesses/sec  880 allocs/op
BenchmarkAccess/kernelq-2   40  2000000 ns/op  519706 accesses/sec  910 allocs/op
`
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if e := got["BenchmarkAccess/kernelq"]; e.Rate != 519706 || e.Allocs != 880 {
		t.Errorf("parsed %+v, want best rate 519706 and fewest allocs 880 for the comparison", e)
	}
	prev := []byte(`{"schema": 1, "note": "pinned", "benchmarks": {"BenchmarkAccess/kernelq":
		{"metric": "accesses/sec", "rate": 1, "allocs_per_op": 1, "min_procs": 4, "versus": "BenchmarkAccess/swqueue", "min_speedup": 1.5}}}`)
	for _, tc := range []struct {
		name string
		prev []byte
		note string
	}{{"fresh", nil, "median-of-run"}, {"over a baseline", prev, "pinned"}} {
		b := updated(got, tc.prev)
		e := b.Benchmarks["BenchmarkAccess/kernelq"]
		if e.Rate != 351593 || e.Allocs != 880 {
			t.Errorf("%s: wrote %+v, want the median rate 351593 and allocs 880", tc.name, e)
		}
		if !strings.HasPrefix(b.Note, tc.note) {
			t.Errorf("%s: note %q, want it to start with %q", tc.name, b.Note, tc.note)
		}
		if tc.prev != nil && (e.MinProcs != 4 || e.Versus != "BenchmarkAccess/swqueue" || e.MinSpeedup != 1.5) {
			t.Errorf("%s: hand-pinned gates lost: %+v", tc.name, e)
		}
	}
}
