package repro_test

import (
	"fmt"

	"repro"
)

// The headline experiment: a 1us device is unusable on demand but
// approaches DRAM behind prefetch + user-level context switches.
func Example() {
	cfg := repro.DefaultConfig()
	ub := repro.NewMicrobench(2000, repro.DefaultWorkCount, 1)

	base := must(repro.RunDRAMBaseline(cfg, ub))
	ondemand := must(repro.RunOnDemandDevice(cfg, ub))
	prefetch := must(repro.RunPrefetch(cfg, ub, 10, false))

	fmt.Printf("on-demand: %.2f of DRAM\n", ondemand.NormalizedTo(base.Measurement))
	fmt.Printf("prefetch:  %.2f of DRAM\n", prefetch.NormalizedTo(base.Measurement))
	// Output:
	// on-demand: 0.10 of DRAM
	// prefetch:  0.92 of DRAM
}

// Ablating the paper's bottleneck: lifting the 10-entry LFB limit lets
// a 4us device reach DRAM parity (§V-B).
func ExampleConfig() {
	cfg := repro.DefaultConfig().WithLatency(4 * repro.Microsecond)
	cfg.LFBPerCore = 80 // the paper's 20-entries-per-microsecond rule
	cfg.ChipQueueMMIO = 1024

	ub := repro.NewMicrobench(4000, repro.DefaultWorkCount, 1)
	base := must(repro.RunDRAMBaseline(cfg, ub))
	r := must(repro.RunPrefetch(cfg, ub, 100, false))
	fmt.Printf("4us device at %.1f of DRAM with rule-sized queues\n",
		r.NormalizedTo(base.Measurement))
	// Output:
	// 4us device at 1.0 of DRAM with rule-sized queues
}

// Applications run through the paper's record/replay methodology;
// without a fault plan the measured run records its own sequence, and
// diagnostics confirm every access was served on the replay fast path.
func ExampleRunPrefetch() {
	g := repro.NewKronecker(8, 8, 1)
	bfs := repro.NewBFS(g, []int{1, 2}, 32, repro.DefaultWorkCount)

	r := must(repro.RunPrefetch(repro.DefaultConfig(), bfs, 4, true))
	fmt.Printf("replay misses: %d\n", r.Diag.OnDemand)
	fmt.Printf("traversals expanded the expected vertices: %v\n",
		bfs.Visited == bfs.ExpectedVisitsPerCore())
	// Output:
	// replay misses: 0
	// traversals expanded the expected vertices: true
}

// The software-queue mechanism scales past the hardware queues but its
// per-descriptor costs cap it near half of DRAM (§V-C).
func ExampleRunSWQueue() {
	cfg := repro.DefaultConfig()
	ub := repro.NewMicrobench(2000, repro.DefaultWorkCount, 1)
	base := must(repro.RunDRAMBaseline(cfg, ub))
	r := must(repro.RunSWQueue(cfg, ub, 24, false))
	fmt.Printf("software queues peak near %.1f of DRAM\n", r.NormalizedTo(base.Measurement))
	// Output:
	// software queues peak near 0.5 of DRAM
}
