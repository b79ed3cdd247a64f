package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestInlineRecordingMatchesTwoPass pins the equivalence that lets a
// fault-free replay run record its own access sequence: across
// mechanisms, applications, core and thread counts, observers and
// fault-free plans, the replay run runThreaded picks gives a Result
// deeply equal to the paper's two runs (recording, then replay) forced
// through runReplay, and those replay modules never miss, skip or
// reorder, so the recorded sequence is the one the measured run
// issues. An enabled drop plan must still take the two passes: a
// resubmitted descriptor is a replay miss there but would be a
// fast-path hit in one pass.
func TestInlineRecordingMatchesTwoPass(t *testing.T) {
	g := workload.NewKronecker(6, 8, 1)
	apps := []struct {
		name string
		mk   func() Workload
	}{
		{"bfs", func() Workload { return workload.NewBFS(g, []int{1, 2}, 12, workload.DefaultWorkCount) }},
		{"bloom", func() Workload { return workload.NewBloom(1<<14, 4, 100, 40, workload.DefaultWorkCount) }},
		{"memcached", func() Workload { return workload.NewMemcached(64, 4, 30, workload.DefaultWorkCount) }},
		{"pointerchase", func() Workload { return workload.NewPointerChase(128, 40, workload.DefaultWorkCount) }},
	}
	mechs := []struct {
		name string
		run  coreRunner
	}{
		{"prefetch", runPrefetchCore},
		{"swqueue", runSWQCore},
		{"kernelq", runKernelQCore},
	}
	drop := fault.Plan{Seed: 7, DropCompletionProb: 0.05}
	for _, mech := range mechs {
		for _, app := range apps {
			for _, cores := range []int{1, 2} {
				for _, threads := range []int{1, 3, 16} {
					for _, observed := range []bool{false, true} {
						for _, plan := range []fault.Plan{{}, {Seed: 7}, drop} {
							name := fmt.Sprintf("%s/%s/cores=%d/threads=%d/observed=%v/seed=%d/faults=%v",
								mech.name, app.name, cores, threads, observed, plan.Seed, plan.Enabled())
							cfg := platform.Default().WithCores(cores)
							cfg.Faults = plan
							if observed {
								cfg.Attribution = true
								cfg.MetricsWindow = 5 * sim.Microsecond
							}
							got, err := runThreaded(cfg, app.mk(), mech.name, threads, true, mech.run)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							two, e, err := runReplay(cfg, app.mk(), mech.name, threads, replayTwoPass, mech.run)
							if err != nil {
								t.Fatalf("%s: two passes: %v", name, err)
							}
							if !reflect.DeepEqual(got, two) {
								t.Errorf("%s: result differs from the forced two passes: on-demand %d vs %d, events %d vs %d, elapsed %g vs %g s",
									name, got.Diag.OnDemand, two.Diag.OnDemand, got.Diag.SimEvents, two.Diag.SimEvents,
									got.ElapsedSeconds, two.ElapsedSeconds)
							}
							if plan.Enabled() {
								continue
							}
							for c := 0; c < cores; c++ {
								m := e.dev.Module(c)
								if m.Misses() != 0 || m.Skips() != 0 || m.Reordered() != 0 {
									t.Errorf("%s: core %d replay misses=%d skips=%d reordered=%d, want 0: the measured run diverged from its recording",
										name, c, m.Misses(), m.Skips(), m.Reordered())
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestFaultPlanSelectsTwoPasses: the fault plan alone picks the path. A
// fault-free replay run reads its workload once; an enabled plan runs
// a clean recording pass first, so the workload runs twice.
func TestFaultPlanSelectsTwoPasses(t *testing.T) {
	for _, tc := range []struct {
		plan   fault.Plan
		passes int
	}{
		{fault.Plan{}, 1},
		{fault.Plan{Seed: 3}, 1},
		{fault.Plan{Seed: 3, StragglerProb: 0.01, StragglerFactor: 2}, 2},
	} {
		m := workload.NewMemcached(64, 4, 30, workload.DefaultWorkCount)
		cfg := platform.Default()
		cfg.Faults = tc.plan
		if _, err := RunSWQueue(cfg, m, 4, true); err != nil {
			t.Fatal(err)
		}
		if m.Lookups != tc.passes*30 {
			t.Errorf("plan %+v: %d lookups, want %d passes of 30", tc.plan, m.Lookups, tc.passes)
		}
	}
}
