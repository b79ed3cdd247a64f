// Command killerusec regenerates the experimental figures of "Taming
// the Killer Microsecond" (MICRO 2018) from the simulated platform.
//
// Usage:
//
//	killerusec -fig 3            # one experiment, by any id -list prints
//	killerusec -all              # everything, in paper order
//	killerusec -fig 7 -csv       # CSV instead of aligned text
//	killerusec -fig 5 -iters 8000
//	killerusec -table1           # the paper's Table I (taxonomy)
//	killerusec -list             # list experiment IDs
//	killerusec -plans            # per-id descriptions and aliases
//	killerusec -fleet -quick     # cluster-scale fleet experiments
//	killerusec -all -fleet -json r.json  # paper sweep + fleet tables
//	killerusec -fig 4 -quick -trace fig4.json  # Perfetto trace of every run
//	killerusec -all -quick -json BENCH_quick.json  # machine-readable run report
//	killerusec -fig 7 -quick -cpuprofile cpu.pp    # pprof profile of the sweep
//
// Long sweeps print per-table progress and an ETA to stderr when it is
// a terminal (suppressed under -csv and in CI/pipes).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

var (
	fig      = flag.String("fig", "", "experiment id or alias to run; -list prints the ids, -plans describes them")
	all      = flag.Bool("all", false, "run every paper experiment (figures + ablations)")
	ext      = flag.Bool("ext", false, "run the beyond-the-paper extension experiments")
	faults   = flag.Bool("faults", false, "run the fault-injection / recovery experiment family")
	fleet    = flag.Bool("fleet", false, "run (or add, with -all/-ext) the cluster-scale fleet experiments")
	csv      = flag.Bool("csv", false, "emit CSV instead of aligned text")
	quick    = flag.Bool("quick", false, "reduced sweep (faster, coarser)")
	iters    = flag.Int("iters", 0, "override microbenchmark iterations per core")
	lookups  = flag.Int("lookups", 0, "override application lookups per core")
	threads  = flag.String("threads", "", "override thread sweep, e.g. 1,2,4,8,16")
	replay   = flag.Bool("replay", true, "use the record/replay methodology for applications")
	table1   = flag.Bool("table1", false, "print the paper's Table I and exit")
	list     = flag.Bool("list", false, "list experiment IDs and exit")
	plans    = flag.Bool("plans", false, "list every runnable plan id with aliases and a one-line description, then exit")
	outdir   = flag.String("outdir", "", "also write each table as <outdir>/<id>.csv")
	traceOut = flag.String("trace", "", "write a Chrome trace-event / Perfetto JSON trace of every measured run to this file")
	jsonOut  = flag.String("json", "", "write a machine-readable run report (schema-versioned JSON) to this file; check it with kurec check")
	parallel = flag.Int("parallel", 1, "worker goroutines for independent simulation cells; output is byte-identical at any value")
	cachedir = flag.String("cachedir", "", "persist cell results to this directory and reuse them across invocations of the same build")
	cpuprof  = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memprof  = flag.String("memprofile", "", "write a pprof heap profile (taken after the sweep) to this file")
	metrics  = flag.Bool("metrics", false, "record a windowed flight-recorder time series per measured run (requires -json; composes with -parallel)")
	metricsW = flag.Float64("metrics-window", 10, "flight-recorder window span in simulated microseconds")
	attribF  = flag.Bool("attrib", false, "record a per-phase latency attribution summary per measured run (requires -json; composes with -parallel and -metrics); inspect with kurec blame")
)

func main() {
	flag.Parse()

	// Profiling hooks for the perf workflow documented in DESIGN.md:
	// `killerusec -fig 7 -quick -cpuprofile cpu.pp` then
	// `go tool pprof cpu.pp`. The CPU profile covers the whole sweep;
	// the heap profile is a post-sweep snapshot (after one final GC) so
	// it shows what the harness retains, not transient event churn.
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "killerusec:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "killerusec:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "killerusec:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "killerusec:", err)
			}
		}()
	}

	if *list {
		fmt.Print(idListing())
		fmt.Println("families:   -all (paper) -ext (extensions) -faults (fault injection/recovery) -fleet (cluster)")
		fmt.Println("modes:      -quick -csv -outdir <dir> -trace <file> (Perfetto trace) -json <file> (run report)")
		fmt.Println("details:    -plans (per-id descriptions)")
		return
	}
	if *plans {
		fmt.Print(planListing())
		return
	}
	if *table1 {
		fmt.Print(experiments.TableI())
		return
	}

	// Reject bad overrides up front: a sweep takes minutes to hours, so
	// a typo must fail before any simulation starts.
	if *iters < 0 {
		fmt.Fprintf(os.Stderr, "killerusec: -iters %d must be positive\n", *iters)
		os.Exit(1)
	}
	if *lookups < 0 {
		fmt.Fprintf(os.Stderr, "killerusec: -lookups %d must be positive\n", *lookups)
		os.Exit(1)
	}
	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "killerusec: -parallel %d must be at least 1\n", *parallel)
		os.Exit(1)
	}

	suite := experiments.Default()
	if *quick {
		suite = experiments.Quick()
	}
	if *iters > 0 {
		suite.Iterations = *iters
	}
	if *lookups > 0 {
		suite.AppLookups = *lookups
	}
	suite.UseReplay = *replay
	// Fleet cells shard over the cores -parallel leaves free, so cells ×
	// shards never oversubscribes; reports are identical at any split.
	suite.FleetShards = experiments.ShardBudget(*parallel)
	if *threads != "" {
		var sweep []int
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "killerusec: bad -threads element %q\n", part)
				os.Exit(2)
			}
			sweep = append(sweep, n)
		}
		suite.Threads = sweep
	}
	if err := suite.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "killerusec:", err)
		os.Exit(1)
	}

	// The flight recorder rides the normal parallel/cached execution
	// path: the windowed series lands in the JSON run report only, so
	// requesting it without -json would be a silent no-op.
	if *metrics {
		if *jsonOut == "" {
			fmt.Fprintln(os.Stderr, "killerusec: -metrics requires -json (the time series is part of the run report)")
			os.Exit(1)
		}
		if *metricsW <= 0 {
			fmt.Fprintf(os.Stderr, "killerusec: -metrics-window %v must be positive\n", *metricsW)
			os.Exit(1)
		}
		suite.Base.MetricsWindow = sim.FromNanoseconds(*metricsW * 1e3)
	}

	// Attribution likewise lands in the JSON run report only (and, when
	// -metrics is also on, as per-window phase columns in each cell's
	// time series).
	if *attribF {
		if *jsonOut == "" {
			fmt.Fprintln(os.Stderr, "killerusec: -attrib requires -json (the attribution summary is part of the run report)")
			os.Exit(1)
		}
		suite.Base.Attribution = true
	}

	// Tracing attaches one recorder to the whole invocation: every
	// measured run lands as its own process in a single Perfetto file.
	// A trace must contain every run in invocation order, so tracing
	// forces the direct serial path (no pool, no cache).
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewRecorder()
		suite.Base.Trace = rec
		if *parallel > 1 {
			fmt.Fprintln(os.Stderr, "killerusec: -trace forces serial uncached execution; ignoring -parallel")
		}
	} else {
		var exec *experiments.Exec
		if *cachedir != "" {
			var err error
			exec, err = experiments.NewExecDisk(*parallel, *cachedir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "killerusec:", err)
				os.Exit(1)
			}
		} else {
			exec = experiments.NewExec(*parallel)
		}
		defer exec.Close()
		suite.Exec = exec
	}

	var plan []experiments.Experiment
	switch {
	case *all && *ext:
		plan = append(suite.PaperPlan(), suite.ExtensionPlan()...)
	case *all:
		plan = suite.PaperPlan()
	case *ext:
		plan = suite.ExtensionPlan()
	case *faults:
		plan = experiments.PlanFor(suite, "ext-faults")
	case *fig != "":
		plan = experiments.PlanFor(suite, strings.ToLower(*fig))
		if plan == nil {
			fmt.Fprintf(os.Stderr, "killerusec: unknown experiment %q (try -list)\n", *fig)
			os.Exit(2)
		}
	case *fleet:
		// -fleet alone runs just the cluster experiments; combined with
		// a family above it appends them (handled below).
	default:
		flag.Usage()
		os.Exit(2)
	}
	if *fleet {
		plan = append(plan, suite.FleetPlan()...)
	}

	meter := newProgressMeter(len(plan), *csv)
	tables := experiments.RunPlan(plan, func(i int, id string) { meter.Step(id) })
	meter.Finish()

	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Print(t.Text())
		}
	}
	if *outdir != "" {
		if err := writeCSVs(*outdir, tables); err != nil {
			fmt.Fprintln(os.Stderr, "killerusec:", err)
			os.Exit(1)
		}
	}
	if rec != nil {
		if err := rec.WriteFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "killerusec:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "killerusec: wrote %d trace events (%d runs) to %s\n",
			rec.Events(), rec.Runs(), *traceOut)
	}
	if *jsonOut != "" {
		rep := suite.Report(tables)
		if err := rep.WriteFile(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "killerusec:", err)
			os.Exit(1)
		}
		nt, ns, nc := rep.CellCount()
		fmt.Fprintf(os.Stderr, "killerusec: wrote run report (%d tables, %d series, %d cells) to %s\n",
			nt, ns, nc, *jsonOut)
	}
}

// writeCSVs writes one CSV file per table into dir, creating it if
// needed.
func writeCSVs(dir string, tables []*stats.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range tables {
		path := filepath.Join(dir, t.ID+".csv")
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// idListing renders -list's id lines from the catalogue, in registry
// order: each id under the family its canonical id is prefixed with
// (fig, ablation-, ext-; unprefixed ids are cluster-scale), by its
// short alias.
func idListing() string {
	var paper, ablations, exts, cluster []string
	for _, p := range experiments.Plans() {
		short := p.ID
		if len(p.Aliases) > 0 {
			short = p.Aliases[0]
		}
		switch {
		case strings.HasPrefix(p.ID, "fig"):
			paper = append(paper, short)
		case strings.HasPrefix(p.ID, "ablation-"):
			ablations = append(ablations, short)
		case strings.HasPrefix(p.ID, "ext-"):
			exts = append(exts, short)
		default:
			cluster = append(cluster, p.ID+" (alias: "+strings.Join(p.Aliases, ", ")+")")
		}
	}
	return fmt.Sprintf("paper:      %s\nablations:  %s\nextensions: %s\ncluster:    %s\n",
		strings.Join(paper, " "), strings.Join(ablations, " "), strings.Join(exts, " "), strings.Join(cluster, " "))
}

// planListing renders the -plans output: every runnable id with its
// aliases and one-line description, in registry order.
func planListing() string {
	var b strings.Builder
	for _, p := range experiments.Plans() {
		id := p.ID
		if len(p.Aliases) > 0 {
			id += " (" + strings.Join(p.Aliases, ", ") + ")"
		}
		fmt.Fprintf(&b, "%-28s %s\n", id, p.Desc)
	}
	return b.String()
}
