package main

import (
	"encoding/json"
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
	got, _, err := parseBench(strings.NewReader(in))
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
// the typical run, while the comparison still takes the best. Over an
// existing baseline it never lowers a floor or raises an allocs/op
// ceiling: a re-run below the old floor keeps the old floor, and one
// above the old ceiling keeps the old ceiling.
func TestUpdateRecordsMedianRate(t *testing.T) {
	in := `BenchmarkAccess/kernelq-2   30  3000000 ns/op  351593 accesses/sec  900 allocs/op
BenchmarkAccess/kernelq-2   30  3100000 ns/op  325576 accesses/sec  880 allocs/op
BenchmarkAccess/kernelq-2   40  2000000 ns/op  519706 accesses/sec  910 allocs/op
`
	got, host, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if e := got["BenchmarkAccess/kernelq"]; e.Rate != 519706 || e.Allocs != 880 {
		t.Errorf("parsed %+v, want best rate 519706 and fewest allocs 880 for the comparison", e)
	}
	baseline := func(rate, allocs string) []byte {
		return []byte(`{"schema": 1, "note": "pinned", "benchmarks": {"BenchmarkAccess/kernelq":
		{"metric": "accesses/sec", "rate": ` + rate + `, "allocs_per_op": ` + allocs + `, "min_procs": 4, "versus": "BenchmarkAccess/swqueue", "min_speedup": 1.5}}}`)
	}
	for _, tc := range []struct {
		name   string
		prev   []byte
		note   string
		rate   float64
		allocs float64
	}{
		{"fresh", nil, "median-of-run", 351593, 880},
		{"over a baseline", baseline("1", "1"), "pinned", 351593, 1},
		{"below the old floor, above the old ceiling", baseline("400000", "870"), "pinned", 400000, 870},
		{"over an ungated ceiling", baseline("1", "0"), "pinned", 351593, 880},
	} {
		b := updated(got, host, tc.prev)
		e := b.Benchmarks["BenchmarkAccess/kernelq"]
		if e.Rate != tc.rate || e.Allocs != tc.allocs {
			t.Errorf("%s: wrote %+v, want rate %v and allocs %v", tc.name, e, tc.rate, tc.allocs)
		}
		if !strings.HasPrefix(b.Note, tc.note) {
			t.Errorf("%s: note %q, want it to start with %q", tc.name, b.Note, tc.note)
		}
		if tc.prev != nil && (e.MinProcs != 4 || e.Versus != "BenchmarkAccess/swqueue" || e.MinSpeedup != 1.5) {
			t.Errorf("%s: hand-pinned gates lost: %+v", tc.name, e)
		}
	}
}

// TestHostStamp: parseBench reads the host from the header lines and
// the GOMAXPROCS suffix, -update writes it into the baseline, and a
// baseline without one prints as unrecorded.
func TestHostStamp(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: repro/internal/cluster
cpu: Intel(R) Xeon(R) Processor
BenchmarkFleet/mechs/shards=1-2   32  10697922 ns/op  8999768 events/sec  972354 B/op  2385 allocs/op
PASS
`
	got, host, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := Host{GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor", Procs: 2}
	if host != want {
		t.Fatalf("host %+v, want %+v", host, want)
	}
	data, err := json.Marshal(updated(got, host, nil))
	if err != nil {
		t.Fatal(err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.Host == nil || *b.Host != want {
		t.Fatalf("baseline host %v, want %+v", b.Host, want)
	}
	if s := b.Host.String(); s != "linux/amd64, Intel(R) Xeon(R) Processor, 2 procs" {
		t.Errorf("host prints as %q", s)
	}
	var old Baseline
	if err := json.Unmarshal([]byte(`{"schema": 1, "benchmarks": {}}`), &old); err != nil {
		t.Fatal(err)
	}
	if s := old.Host.String(); s != "unrecorded" {
		t.Errorf("a baseline without a host prints as %q", s)
	}
}
