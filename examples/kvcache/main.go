// Kvcache: Memcached-style lookups with values on microsecond storage
// (the paper's third application case study, §IV-C / Fig 10), plus the
// Bloom-filter benchmark as a pre-filter — a realistic composition of
// the paper's two batch-of-four applications.
//
// The lookup path mirrors a production cache tier: a Bloom filter
// screens out absent keys, then the value (4 cache lines) is fetched.
// Both core data structures live on the emulated device; the hash index
// stays in DRAM, per the paper's methodology ("hot data structures ...
// are all placed in the main memory", §IV-C).
//
//	go run ./examples/kvcache
package main

import (
	"fmt"

	"repro"
)

func main() {
	cfg := repro.DefaultConfig()
	const lookups = 1200

	filter := repro.NewBloom(1<<20, 4, 4096, lookups, repro.DefaultWorkCount)
	store := repro.NewMemcached(4096, 4, lookups, repro.DefaultWorkCount)

	fmt.Println("== Bloom filter stage (4 independent probes per lookup) ==")
	fbase := must(repro.RunDRAMBaseline(cfg, filter))
	for _, threads := range []int{1, 2, 3, 8} {
		filter.Reset()
		r := must(repro.RunPrefetch(cfg, filter, threads, true))
		fmt.Printf("  prefetch %d threads: %5.3f of DRAM  (%d/%d lookups positive)\n",
			threads, r.NormalizedTo(fbase.Measurement), filter.Positives, filter.Lookups)
	}
	fmt.Println("  (3 threads x 4 probes exhaust the 10 LFBs: the Fig 6 4-read knee)")

	fmt.Println("\n== Value store stage (one 256B value = 4 lines per hit) ==")
	mbase := must(repro.RunDRAMBaseline(cfg, store))
	for _, threads := range []int{1, 3, 8, 16} {
		store.Reset()
		pf := must(repro.RunPrefetch(cfg, store, threads, true))
		store.Reset()
		sq := must(repro.RunSWQueue(cfg, store, threads, true))
		fmt.Printf("  %2d threads: prefetch %5.3f   swqueue %5.3f   (of DRAM)\n",
			threads, pf.NormalizedTo(mbase.Measurement), sq.NormalizedTo(mbase.Measurement))
	}

	store.Reset()
	r := must(repro.RunSWQueue(cfg, store, 8, true))
	fmt.Printf("\nverification: %d lookups, %d value mismatches, %d replay misses\n",
		store.Lookups, store.BadValues, r.Diag.OnDemand)

	fmt.Println("\n== End-to-end tier cost per lookup (filter + store, 8 threads) ==")
	filter.Reset()
	store.Reset()
	f8 := must(repro.RunPrefetch(cfg, filter, 8, true))
	s8 := must(repro.RunPrefetch(cfg, store, 8, true))
	perLookup := (f8.ElapsedSeconds + s8.ElapsedSeconds) / lookups * 1e9
	fmt.Printf("  %.0f ns per screened lookup on a 1us device (DRAM tier: %.0f ns)\n",
		perLookup, (fbase.ElapsedSeconds+mbase.ElapsedSeconds)/lookups*1e9)
}

// must unwraps a run result; the examples treat any failure as fatal.
func must(r repro.Result, err error) repro.Result {
	if err != nil {
		panic(err)
	}
	return r
}
