package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// parSuite is a reduced sweep that still exercises every figure and
// ablation — small enough to run the full paper plan several times.
func parSuite() Suite {
	s := Quick()
	s.Iterations = 300
	s.AppLookups = 100
	s.Threads = []int{1, 2, 4}
	return s
}

// encodePlan runs the full paper plan under the given executor and
// returns the canonical report bytes.
func encodePlan(t *testing.T, s Suite) []byte {
	t.Helper()
	return encodeSteps(t, s, s.PaperPlan())
}

// encodeSteps runs plan and returns the canonical report bytes.
func encodeSteps(t *testing.T, s Suite, plan []Experiment) []byte {
	t.Helper()
	b, err := s.Report(RunPlan(plan, nil)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParallelByteIdentical is the subsystem's core guarantee: the
// same suite produces byte-identical reports with no executor and
// with pools of 1, 4 and 8 workers, for the paper plan and for the
// extension plan (which includes the fault family).
func TestParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("paper and extension plans at three worker counts")
	}
	plans := []struct {
		name string
		plan func(Suite) []Experiment
	}{
		{"paper", Suite.PaperPlan},
		{"extension", Suite.ExtensionPlan},
	}
	for _, p := range plans {
		s := parSuite()
		base := encodeSteps(t, s, p.plan(s))
		for _, workers := range []int{1, 4, 8} {
			s := parSuite()
			s.Exec = NewExec(workers)
			got := encodeSteps(t, s, p.plan(s))
			s.Exec.Close()
			if !bytes.Equal(got, base) {
				t.Errorf("%s plan: parallel=%d report differs from serial report (%d vs %d bytes)",
					p.name, workers, len(got), len(base))
			}
		}
	}
}

// TestExecDeduplicates: the paper plan re-runs many identical cells
// (shared DRAM baselines above all); with an executor attached they
// must be computed once and served from the store afterwards.
func TestExecDeduplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full paper plan")
	}
	s := parSuite()
	store := resultstore.New[core.Result](defaultCacheEntries)
	s.Exec = NewExecWith(4, store)
	defer s.Exec.Close()
	encodePlan(t, s)
	cs := store.Stats()
	es := s.Exec.Stats()
	if cs.Misses == 0 {
		t.Fatal("no cells computed")
	}
	if es.Dedup == 0 {
		t.Error("no deduplicated submissions — baseline deduplication is not working")
	}
	t.Logf("distinct cells %d (computed %d), deduplicated submissions %d", es.Cells, cs.Misses, es.Dedup)
}

// TestWorkloadSpecNames pins the contract Fig10 relies on: a spec's
// Name (used for series labels without building the workload) must
// equal the built workload's Name.
func TestWorkloadSpecNames(t *testing.T) {
	s := Quick()
	specs := append(s.appSpecs(),
		s.ubenchSpec(1, workload.DefaultWorkCount),
		s.ubenchSpec(4, 500),
		WorkloadSpec{Kind: "ubench", Iters: 100, Work: 200, Reads: 2, Writes: 1},
		WorkloadSpec{Kind: "ptrchase", ChaseNodes: 64, Iters: 100, Work: 200},
	)
	for _, spec := range specs {
		if got, want := spec.Name(), spec.Build().Name(); got != want {
			t.Errorf("spec %q Name() = %q, built Name() = %q", spec.Kind, got, want)
		}
	}
}

// TestBuildSharesDatasets: two builds of a BFS, Bloom or memcached spec
// share one read-only prepared input or dataset, and a run over the
// shared one — including a second run after the first has read it, and
// for BFS walked on the first run's pooled scratch — matches a run over
// a freshly built one.
func TestBuildSharesDatasets(t *testing.T) {
	s := Quick()
	s.AppLookups = 40
	for _, spec := range s.appSpecs() {
		var fresh core.Workload
		switch spec.Kind {
		case "bfs":
			a, b := spec.Build().(*workload.BFS), spec.Build().(*workload.BFS)
			if a.BFSInput != b.BFSInput || a == b {
				t.Errorf("bfs builds: shared input %v, shared instance %v; want a shared input only",
					a.BFSInput == b.BFSInput, a == b)
			}
			g := workload.NewKronecker(spec.BFSScale, spec.BFSEdgeFactor, spec.BFSSeed)
			fresh = workload.NewBFS(g, spec.BFSSources, spec.BFSMaxVisits, spec.Work)
		case "bloom":
			a, b := spec.Build().(*workload.Bloom), spec.Build().(*workload.Bloom)
			if a.BloomDataset != b.BloomDataset || a == b {
				t.Errorf("bloom builds: shared dataset %v, shared instance %v; want a shared dataset only",
					a.BloomDataset == b.BloomDataset, a == b)
			}
			fresh = workload.NewBloom(spec.BloomBits, spec.BloomHashes, spec.BloomKeys, spec.Lookups, spec.Work)
		case "memcached":
			a, b := spec.Build().(*workload.Memcached), spec.Build().(*workload.Memcached)
			if a.MemcachedDataset != b.MemcachedDataset || a == b {
				t.Errorf("memcached builds: shared dataset %v, shared instance %v; want a shared dataset only",
					a.MemcachedDataset == b.MemcachedDataset, a == b)
			}
			fresh = workload.NewMemcached(spec.MCItems, spec.MCValueLines, spec.Lookups, spec.Work)
		default:
			continue
		}
		want, err := core.RunPrefetch(s.Base, fresh, 4, false)
		if err != nil || want.Accesses == 0 {
			t.Fatalf("%s fresh run: %d accesses, err %v", spec.Kind, want.Accesses, err)
		}
		for i := 0; i < 2; i++ {
			got, err := prefetchCell(s.Base, spec, 4, false).Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s run %d over the shared dataset differs from a fresh build:\n got %+v\nwant %+v",
					spec.Kind, i, got.Measurement, want.Measurement)
			}
		}
	}
}

// TestCellKeyDiscriminates: distinct parameterizations must never
// collide, and the trace recorder must not affect the key.
func TestCellKeyDiscriminates(t *testing.T) {
	s := Quick()
	wl := s.ubenchSpec(1, 500)
	base := dramCell(s.Base, wl)
	seen := map[string]string{}
	add := func(label string, c CellSpec) {
		k := c.Key()
		if prev, ok := seen[k]; ok {
			t.Errorf("key collision between %s and %s", prev, label)
		}
		seen[k] = label
	}
	add("dram", base)
	add("ondemand", onDemandCell(s.Base, wl))
	add("prefetch t1", prefetchCell(s.Base, wl, 1, false))
	add("prefetch t2", prefetchCell(s.Base, wl, 2, false))
	add("prefetch t2 replay", prefetchCell(s.Base, wl, 2, true))
	add("swqueue t2", swqueueCell(s.Base, wl, 2, false))
	add("dram 2c", dramCell(s.Base.WithCores(2), wl))
	add("dram work=501", dramCell(s.Base, s.ubenchSpec(1, 501)))
	if base.Key() != dramCell(s.Base, s.ubenchSpec(1, 500)).Key() {
		t.Error("identical cells produced different keys")
	}
}

// TestPlanFor spot-checks the shared id resolver used by the CLI and
// the server.
func TestPlanFor(t *testing.T) {
	s := Quick()
	for _, id := range []string{"2", "fig9", "10c", "lfb", "ext-tail", "faults"} {
		if PlanFor(s, id) == nil {
			t.Errorf("PlanFor(%q) = nil, want a plan", id)
		}
	}
	if PlanFor(s, "fig99") != nil {
		t.Error("PlanFor accepted an unknown id")
	}
	if got := PlanFor(s, "7")[0].ID; got != "fig7" {
		t.Errorf("PlanFor(7) ID = %q", got)
	}
}

func ExampleSuite_parallel() {
	s := Quick()
	s.Iterations = 200
	s.Threads = []int{1, 2}
	s.Exec = NewExec(4)
	defer s.Exec.Close()
	tb := s.Fig2()
	fmt.Println(tb.ID, len(tb.Series) > 0)
	// Output: fig2 true
}

// TestMetricsParallelByteIdentical extends the identity gate to the
// flight recorder: a -metrics sweep must produce byte-identical
// reports serially and under a worker pool, including every windowed
// time series. This is what lets -metrics ride the parallel path
// instead of forcing serial execution the way -trace does.
func TestMetricsParallelByteIdentical(t *testing.T) {
	mkSuite := func() Suite {
		s := Quick()
		s.Iterations = 300
		s.AppLookups = 100
		s.Threads = []int{1, 4}
		s.Base.MetricsWindow = 10 * sim.Microsecond
		return s
	}
	run := func(workers int) []byte {
		s := mkSuite()
		if workers > 0 {
			s.Exec = NewExec(workers)
			defer s.Exec.Close()
		}
		b, err := s.Report(RunPlan(PlanFor(s, "3"), nil)).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	base := run(0) // direct serial path, no executor
	if !bytes.Contains(base, []byte(`"timeseries"`)) || !bytes.Contains(base, []byte(`"metrics"`)) {
		t.Fatal("metrics sweep produced a report without time series")
	}
	for _, workers := range []int{1, 4} {
		if got := run(workers); !bytes.Equal(got, base) {
			t.Errorf("parallel=%d metrics report differs from serial (%d vs %d bytes)",
				workers, len(got), len(base))
		}
	}
}

// TestCellKeyMetricsDiscrimination: the metrics window is part of the
// cell identity (a recorded run computes more), but the sink — a live
// streaming destination — must not be, or served jobs could never
// share cache entries with CLI runs.
func TestCellKeyMetricsDiscrimination(t *testing.T) {
	s := Quick()
	wl := s.ubenchSpec(1, 500)
	plain := prefetchCell(s.Base, wl, 2, false)

	withWindow := s.Base
	withWindow.MetricsWindow = 10 * sim.Microsecond
	rec := prefetchCell(withWindow, wl, 2, false)
	if plain.Key() == rec.Key() {
		t.Error("metrics window must change the cell key")
	}

	withSink := withWindow
	withSink.MetricsSink = &nullSink{}
	sunk := prefetchCell(withSink, wl, 2, false)
	if rec.Key() != sunk.Key() {
		t.Error("metrics sink must not change the cell key")
	}
}

type nullSink struct{}

func (nullSink) PublishWindow(telemetry.WindowEvent) {}
