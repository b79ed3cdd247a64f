package core

import (
	"testing"

	"repro/internal/platform"
)

// BenchmarkAccess measures the simulated access path of each threaded
// mechanism: one 10-thread microbenchmark cell per op, fault-free and
// unobserved. The benchgate CI job gates its accesses/sec floor and
// its allocs/op ceiling, so a per-access allocation creeping back into
// the pcie, mem, device or core layers fails the gate.
func BenchmarkAccess(b *testing.B) {
	cfg := platform.Default()
	w := ubench(500)
	for _, m := range stampedMechs {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			var accesses int
			for i := 0; i < b.N; i++ {
				r, err := m.run(cfg, w, 10, false)
				if err != nil {
					b.Fatal(err)
				}
				accesses += r.Accesses
			}
			b.ReportMetric(float64(accesses)/b.Elapsed().Seconds(), "accesses/sec")
		})
	}
}
