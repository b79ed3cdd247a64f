// Command benchgate compares `go test -bench` output against a
// committed baseline and fails on throughput or allocation regressions.
// It is the CI regression gate for the engine microbenchmarks: the
// benchmarks report a rate metric (events/sec, cells/sec), allocs/op
// and B/op, benchgate takes the best rate and the fewest allocs/op and
// B/op per benchmark across -count repetitions (best-of filters
// scheduler noise on shared runners), and compares them with the
// baseline file. -update records each benchmark's median rate across
// the repetitions, so one fast outlier cannot set a floor the typical
// run falls below, and never loosens an existing floor, allocs/op
// ceiling or B/op ceiling.
//
// Usage:
//
//	go test -bench . -benchtime=0.2s -count=3 ./internal/sim/ | benchgate -baseline BENCH_engine.json
//	go test -bench . ./internal/sim/ | benchgate -baseline BENCH_engine.json -update
//
// Exit status: 0 when every baselined benchmark is present and within
// the thresholds, 1 on regression or missing benchmark, 2 on usage or
// parse errors. The rate threshold is generous (default 25% below
// baseline) because CI machines vary; the committed baseline records
// the rates of the machine that last ran -update, and the rate gate
// exists to catch order-of-magnitude mistakes (an accidental
// O(n log n)->O(n^2)), not 5% drift. Allocation counts and bytes do
// not depend on the machine's speed, so their ceilings are tight: a run
// fails when its allocs/op exceed the baseline's by more than
// allocSlack, or its B/op by more than bytesSlack.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the schema of BENCH_engine.json.
type Baseline struct {
	Schema int    `json:"schema"`
	Note   string `json:"note,omitempty"`
	Host   *Host  `json:"host,omitempty"` // where -update last ran
	// Benchmarks maps the bare benchmark name (GOMAXPROCS suffix
	// stripped) to its recorded rate.
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// Entry is one benchmark's recorded performance, plus optional gate
// conditions that are hand-pinned in the baseline (and preserved by
// -update, which only refreshes the measured fields).
type Entry struct {
	Metric string  `json:"metric"`                 // rate unit, e.g. "events/sec"
	Rate   float64 `json:"rate"`                   // median rate of the -update run; the best of this run when parsed
	Allocs float64 `json:"allocs_per_op"`          // fewest observed allocs/op: a ceiling (0: not gated)
	Bytes  float64 `json:"bytes_per_op,omitempty"` // fewest observed B/op: a ceiling (0: not gated)

	// MinProcs skips this entry entirely when the run's GOMAXPROCS
	// (the -N benchmark-name suffix) is below it — for entries whose
	// gates only make sense on multi-core machines, e.g. a sharded
	// fleet's speedup requirement.
	MinProcs int `json:"min_procs,omitempty"`

	// Versus and MinSpeedup gate a measured speedup within THIS run:
	// this benchmark's rate must be at least MinSpeedup times the rate
	// the same run recorded for the Versus benchmark. Both sides come
	// from the current input, so the check is machine-independent.
	Versus     string  `json:"versus,omitempty"`
	MinSpeedup float64 `json:"min_speedup,omitempty"`

	// Procs is the GOMAXPROCS the rate was observed at (parsed from
	// the -N suffix); carried in memory for MinProcs checks, not
	// serialized.
	Procs int `json:"-"`

	// Rates holds every repetition's rate in input order, for the
	// median -update records; not serialized.
	Rates []float64 `json:"-"`
}

// Host is the machine a run came from: `go test -bench` header lines
// and GOMAXPROCS from the -N suffix.
type Host struct {
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	Procs  int    `json:"procs,omitempty"`
}

func (h *Host) String() string {
	if h == nil {
		return "unrecorded"
	}
	return fmt.Sprintf("%s/%s, %s, %d procs", h.GOOS, h.GOARCH, h.CPU, h.Procs)
}

// allocSlack is how far above its baseline a benchmark's allocs/op may
// rise before the gate fails. The counts are deterministic up to the
// warm-up share of b.N, so the slack only absorbs that.
const allocSlack = 0.05

// bytesSlack is allocSlack for B/op. Bytes also count the pooled
// scratch (engine, BFS walks) that a GC cycle drops and the next run
// rebuilds, so they move with GC timing: a quick sweep's first
// repetition in a process allocates about 10% more than the next ones.
const bytesSlack = 0.10

func main() {
	var (
		basePath  = flag.String("baseline", "BENCH_engine.json", "baseline file to compare against (or write with -update)")
		threshold = flag.Float64("threshold", 0.25, "fail when a rate drops more than this fraction below baseline")
		update    = flag.Bool("update", false, "rewrite the baseline from this run instead of comparing")
		input     = flag.String("input", "-", "benchmark output to read ('-' for stdin)")
	)
	flag.Parse()

	var in io.Reader = os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(2, "%v", err)
		}
		defer f.Close()
		in = f
	}

	got, host, err := parseBench(in)
	if err != nil {
		fatal(2, "%v", err)
	}
	if len(got) == 0 {
		fatal(2, "no benchmark rate lines found in input (did the run fail, or lack ReportMetric rates?)")
	}

	if *update {
		prev, _ := os.ReadFile(*basePath)
		b := updated(got, host, prev)
		data, err := json.MarshalIndent(&b, "", "  ")
		if err != nil {
			fatal(2, "%v", err)
		}
		if err := os.WriteFile(*basePath, append(data, '\n'), 0o644); err != nil {
			fatal(2, "%v", err)
		}
		fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(b.Benchmarks), *basePath)
		return
	}

	data, err := os.ReadFile(*basePath)
	if err != nil {
		fatal(2, "%v (run with -update to create the baseline)", err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(2, "parsing %s: %v", *basePath, err)
	}
	if base.Schema != 1 {
		fatal(2, "%s: unsupported schema %d", *basePath, base.Schema)
	}

	fmt.Printf("host: baseline %s; this run %s\n", base.Host, &host)

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		want := base.Benchmarks[name]
		have, ok := got[name]
		if !ok {
			fmt.Printf("FAIL %-28s baselined but missing from this run\n", name)
			failed = true
			continue
		}
		if want.MinProcs > 0 && have.Procs < want.MinProcs {
			fmt.Printf("skip %-28s needs %d procs, ran at %d\n", name, want.MinProcs, have.Procs)
			continue
		}
		floor := want.Rate * (1 - *threshold)
		ratio := have.Rate / want.Rate
		status := "ok  "
		if have.Rate < floor {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %-28s %14.0f %s vs baseline %14.0f (%.2fx, floor %.0f)\n",
			status, name, have.Rate, have.Metric, want.Rate, ratio, floor)

		if !withinCeiling(os.Stdout, name, "allocs/op", have.Allocs, want.Allocs, allocSlack) {
			failed = true
		}
		if !withinCeiling(os.Stdout, name, "B/op", have.Bytes, want.Bytes, bytesSlack) {
			failed = true
		}

		// Speedup condition: compare against the Versus benchmark's
		// rate from this same run, so machine speed cancels out.
		if want.Versus != "" && want.MinSpeedup > 0 {
			vs, ok := got[want.Versus]
			if !ok {
				fmt.Printf("FAIL %-28s speedup reference %s missing from this run\n", name, want.Versus)
				failed = true
				continue
			}
			speedup := have.Rate / vs.Rate
			status := "ok  "
			if speedup < want.MinSpeedup {
				status = "FAIL"
				failed = true
			}
			fmt.Printf("%s %-28s %14.2fx vs %s (need >= %.2fx)\n",
				status, name, speedup, want.Versus, want.MinSpeedup)
		}
	}
	for name := range got {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Printf("new  %-28s %14.0f %s (not baselined; run -update to add)\n",
				name, got[name].Rate, got[name].Metric)
		}
	}
	if failed {
		fmt.Printf("benchgate: regression beyond %.0f%% (rates), %.0f%% (allocs/op) or %.0f%% (B/op) of %s\n",
			*threshold*100, allocSlack*100, bytesSlack*100, *basePath)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within %.0f%% of %s\n", len(names), *threshold*100, *basePath)
}

// withinCeiling reports whether have, a run's fewest allocs/op or B/op,
// is at most slack above the baseline's ceiling want, and prints the
// verdict to w. A zero want is not gated and prints nothing.
func withinCeiling(w io.Writer, name, unit string, have, want, slack float64) bool {
	if want <= 0 {
		return true
	}
	ceiling := want * (1 + slack)
	ok := have <= ceiling
	status := "ok  "
	if !ok {
		status = "FAIL"
	}
	fmt.Fprintf(w, "%s %-28s %14.0f %s vs baseline %14.0f (ceiling %.0f)\n",
		status, name, have, unit, want, ceiling)
	return ok
}

// updated builds the baseline -update writes from this run's entries
// and the previous baseline file's bytes (nil when there is none). Each
// rate is the median of the repetitions (the lower middle one for an
// even count) raised to the old floor, and allocs/op and B/op each drop
// to the old non-zero ceiling. Gate conditions (min_procs, versus,
// min_speedup) and the note are hand-pinned policy, so an existing
// baseline's survive.
func updated(got map[string]Entry, host Host, prev []byte) Baseline {
	b := Baseline{
		Schema:     1,
		Note:       "median-of-run engine benchmark rates (floors, met by each run's best rate) and fewest allocs/op and B/op (ceilings); regenerate with `make bench-baseline`",
		Host:       &host,
		Benchmarks: map[string]Entry{},
	}
	var old Baseline
	if prev != nil && json.Unmarshal(prev, &old) == nil && old.Note != "" {
		b.Note = old.Note
	}
	for name, e := range got {
		rates := append([]float64(nil), e.Rates...)
		sort.Float64s(rates)
		e.Rate = rates[(len(rates)-1)/2]
		if p, ok := old.Benchmarks[name]; ok {
			e.Rate = max(e.Rate, p.Rate)
			e.Allocs = keepCeiling(e.Allocs, p.Allocs)
			e.Bytes = keepCeiling(e.Bytes, p.Bytes)
			e.MinProcs, e.Versus, e.MinSpeedup = p.MinProcs, p.Versus, p.MinSpeedup
		}
		b.Benchmarks[name] = e
	}
	return b
}

// keepCeiling returns the ceiling -update writes from a run's fewest
// value and the old baseline's ceiling: the lower of the two, where a
// zero old ceiling is ungated and a zero run value unmeasured.
func keepCeiling(run, old float64) float64 {
	if old > 0 && (run == 0 || old < run) {
		return old
	}
	return run
}

// parseBench extracts the host, and the best rate and fewest allocs/op
// and B/op per benchmark, from `go test -bench` output. A result line
// looks like:
//
//	BenchmarkSchedule-8  242  4941329 ns/op  11367105 events/sec  376 B/op  6 allocs/op
//
// The rate is the value whose unit ends in "/sec"; the "-8" GOMAXPROCS
// suffix is stripped so baselines transfer across machines. With
// -count>1 the same name repeats; the maximum rate, the minimum
// allocs/op and the minimum B/op win, each on its own, and Rates keeps
// every rate.
func parseBench(r io.Reader) (map[string]Entry, Host, error) {
	out := map[string]Entry{}
	var host Host
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if key, val, ok := strings.Cut(line, ": "); ok {
			switch key {
			case "goos":
				host.GOOS = val
			case "goarch":
				host.GOARCH = val
			case "cpu":
				host.CPU = val
			}
		}
		fields := strings.Fields(line)
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		procs := 1
		if i := strings.LastIndex(name, "-"); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], n
			}
		}
		var (
			rate   float64
			metric string
			allocs float64
			bytes  float64
		)
		for i := 1; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; {
			case strings.HasSuffix(unit, "/sec"):
				rate, metric = v, unit
			case unit == "allocs/op":
				allocs = v
			case unit == "B/op":
				bytes = v
			}
		}
		if metric == "" {
			continue // benchmark without a rate metric; not gated
		}
		if host.Procs == 0 {
			host.Procs = procs
		}
		prev, ok := out[name]
		if !ok {
			out[name] = Entry{Metric: metric, Rate: rate, Allocs: allocs, Bytes: bytes, Procs: procs, Rates: []float64{rate}}
			continue
		}
		prev.Rates = append(prev.Rates, rate)
		if rate > prev.Rate {
			prev.Rate = rate
		}
		prev.Allocs = min(prev.Allocs, allocs)
		prev.Bytes = min(prev.Bytes, bytes)
		out[name] = prev
	}
	if err := sc.Err(); err != nil {
		return nil, Host{}, err
	}
	return out, host, nil
}

func fatal(code int, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(code)
}
