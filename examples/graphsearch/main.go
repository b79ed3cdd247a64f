// Graphsearch: Graph500-style BFS with its adjacency lists stored on a
// microsecond-latency device (the paper's first application case study,
// §IV-C / Fig 10).
//
// The example builds a Kronecker graph, stores the CSR adjacency array
// on the emulated device, and compares traversal performance across the
// access mechanisms — including the record/replay methodology the
// paper's FPGA platform required (§IV-A); without faults the measured
// run records its own sequence, so each traversal runs once.
//
//	go run ./examples/graphsearch
package main

import (
	"fmt"

	"repro"
)

func main() {
	const scale, edgefactor = 11, 16
	g := repro.NewKronecker(scale, edgefactor, 20180610)
	fmt.Printf("Kronecker graph: scale %d (%d vertices, %d directed edges)\n",
		scale, g.V, g.Edges())

	sources := []int{1, 57, 123, 400, 811, 1200, 1500, 1999}
	bfs := repro.NewBFS(g, sources, 64, repro.DefaultWorkCount)
	fmt.Printf("workload: %d truncated traversals, %d device batches/core, %d vertices expanded/core\n",
		len(sources), bfs.Batches(), bfs.ExpectedVisitsPerCore())
	fmt.Println("(BFS batches at most 2 adjacency lines: inherent data dependencies, §V-D)")

	cfg := repro.DefaultConfig() // 1us device
	baseline := must(repro.RunDRAMBaseline(cfg, bfs))
	fmt.Printf("\nDRAM baseline: %.2f us total\n", baseline.ElapsedSeconds*1e6)

	fmt.Println("\nsingle core, 1us device:")
	for _, threads := range []int{1, 2, 4, 5, 8} {
		bfs.Reset()
		pf := must(repro.RunPrefetch(cfg, bfs, threads, true)) // recorded replay
		bfs.Reset()
		sq := must(repro.RunSWQueue(cfg, bfs, threads, true))
		fmt.Printf("  %2d threads: prefetch %5.3f   swqueue %5.3f   (of DRAM)\n",
			threads,
			pf.NormalizedTo(baseline.Measurement),
			sq.NormalizedTo(baseline.Measurement))
	}

	// Correctness through the full simulated stack: the traversal must
	// expand exactly the vertices the functional pass expanded.
	bfs.Reset()
	r := must(repro.RunPrefetch(cfg, bfs, 4, true))
	expect := bfs.ExpectedVisitsPerCore()
	fmt.Printf("\nverification: expanded %d vertices (want %d), %d replay misses\n",
		bfs.Visited, expect, r.Diag.OnDemand)

	fmt.Println("\neight cores, software queues (the scalable configuration, Fig 10d):")
	cfg8 := cfg.WithCores(8)
	for _, threads := range []int{4, 8, 16} {
		bfs.Reset()
		r := must(repro.RunSWQueue(cfg8, bfs, threads, true))
		fmt.Printf("  %2d threads/core: %.2fx of the single-core DRAM baseline\n",
			threads, r.NormalizedTo(baseline.Measurement))
	}
}

// must unwraps a run result; the examples treat any failure as fatal.
func must(r repro.Result, err error) repro.Result {
	if err != nil {
		panic(err)
	}
	return r
}
