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
