package experiments

import (
	"testing"

	"repro/internal/sim"
)

// benchSuite is the reduced suite the sweep benchmarks run.
func benchSuite() Suite {
	s := Quick()
	s.Iterations = 200
	s.AppLookups = 50
	s.Threads = []int{1, 4, 10}
	return s
}

// BenchmarkQuickSweep is the end-to-end wall-clock benchmark of the
// sweep pipeline: the full paper plan on a reduced suite, executed
// serially and uncached so the engine hot path dominates. The
// benchgate CI job tracks its cells/sec alongside the internal/sim
// microbenchmarks — a regression here that the microbenchmarks missed
// means the slowdown is in the model layer, not the engine.
func BenchmarkQuickSweep(b *testing.B) {
	benchSweep(b, benchSuite())
}

// BenchmarkObservedSweep is BenchmarkQuickSweep with attribution and
// the 10 µs flight recorder on, so its cells/sec and allocs/op against
// BenchmarkQuickSweep's show what the two per-access observers cost.
func BenchmarkObservedSweep(b *testing.B) {
	s := benchSuite()
	s.Base.Attribution = true
	s.Base.MetricsWindow = 10 * sim.Microsecond
	benchSweep(b, s)
}

func benchSweep(b *testing.B, s Suite) {
	b.ReportAllocs()
	var cells int
	for i := 0; i < b.N; i++ {
		tables := RunPlan(s.PaperPlan(), nil)
		if len(tables) == 0 {
			b.Fatal("empty sweep")
		}
		cells = 0
		for _, t := range tables {
			for _, series := range t.Series {
				cells += len(series.X)
			}
		}
	}
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/sec")
}
