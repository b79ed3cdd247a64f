package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/trace"
)

// cmdTrace runs one traced measurement and prints its per-run span
// summary, optionally writing the Perfetto JSON file; with -in it
// instead validates an existing trace file against the trace-event
// schema and summarizes it (the CI gate).
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	wl := fs.String("workload", "ubench", "workload to trace (ubench, bfs, bloom, memcached, ptrchase)")
	mech := fs.String("mech", "prefetch", "mechanism (ondemand, prefetch, swqueue, kernelq)")
	cores := fs.Int("cores", 1, "cores")
	threads := fs.Int("threads", 8, "threads per core (threaded mechanisms)")
	lookups := fs.Int("lookups", 200, "per-core lookups/iterations")
	out := fs.String("out", "", "also write the Perfetto JSON trace to this file")
	in := fs.String("in", "", "validate and summarize an existing trace file instead of running")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		sum, err := trace.ReadSummary(f)
		if err != nil {
			return err
		}
		fmt.Printf("%s: valid trace-event JSON\n", *in)
		printSummary(sum)
		return nil
	}

	if *cores < 1 {
		return fmt.Errorf("-cores %d must be at least 1", *cores)
	}
	if *threads < 1 {
		return fmt.Errorf("-threads %d must be at least 1", *threads)
	}
	if *lookups < 1 {
		return fmt.Errorf("-lookups %d must be at least 1", *lookups)
	}
	switch *mech {
	case "ondemand", "prefetch", "swqueue", "kernelq":
	default:
		return fmt.Errorf("unknown -mech %q (want ondemand, prefetch, swqueue, or kernelq)", *mech)
	}

	w, err := pickWorkload(*wl, *lookups)
	if err != nil {
		return err
	}
	rec := trace.NewRecorder()
	cfg := platform.Default().WithCores(*cores)
	cfg.Trace = rec
	res, err := experiments.CellSpec{Mech: *mech, Config: cfg, Workload: w, Threads: *threads}.Run()
	if err != nil {
		return err
	}

	if *out != "" {
		if err := rec.WriteFile(*out); err != nil {
			return err
		}
		fmt.Printf("%s: %d trace events\n", *out, rec.Events())
	}
	fmt.Printf("run: %s\n", res.Label)
	fmt.Printf("accesses: %d  p50: %.0fns  p99: %.0fns  p99.9: %.0fns\n",
		res.Accesses, res.Diag.AccessP50Ns, res.Diag.AccessP99Ns, res.Diag.AccessP999Ns)
	printSummary(rec.Summary())
	return nil
}

// printSummary renders per-run span statistics in aligned text.
func printSummary(s trace.Summary) {
	fmt.Printf("events: %d, runs: %d\n", s.Events, len(s.Runs))
	for _, rs := range s.Runs {
		fmt.Printf("\n%s\n", rs.Label)
		fmt.Printf("  tracks:   %d", len(rs.Tracks))
		for _, name := range rs.Tracks {
			fmt.Printf(" %s", name)
		}
		fmt.Println()
		fmt.Printf("  spans:    %d completed, %d open\n", rs.Spans, rs.OpenSpans)
		if rs.Spans > 0 {
			fmt.Printf("  span dur: min %.0fns  mean %.0fns  max %.0fns\n",
				float64(rs.MinDurPs)/1e3, float64(rs.MeanDurPs())/1e3, float64(rs.MaxDurPs)/1e3)
		}
		fmt.Printf("  slices:   %d  instants: %d\n", rs.Slices, rs.Instants)
		fmt.Printf("  counters: %d samples on %d tracks", rs.CounterSamples, len(rs.CounterTracks))
		for _, name := range rs.CounterTracks {
			fmt.Printf(" %s", name)
		}
		fmt.Println()
		if len(rs.PointCounts) > 0 {
			names := make([]string, 0, len(rs.PointCounts))
			for name := range rs.PointCounts {
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Printf("  edges:   ")
			for _, name := range names {
				fmt.Printf(" %s=%d", name, rs.PointCounts[name])
			}
			fmt.Println()
		}
	}
}
