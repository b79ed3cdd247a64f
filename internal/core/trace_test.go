package core

// Trace-layer integration tests: every mechanism must produce one
// completed span per access, traced runs must be byte-reproducible, and
// tracing must never perturb the measurement it observes.

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
)

// traceRun executes one traced run of mech and returns the result.
func traceRun(t *testing.T, mech string, rec *trace.Recorder) Result {
	t.Helper()
	cfg := platform.Default()
	cfg.Trace = rec
	return runMech(t, mech, cfg, 60)
}

// runMech executes a run of iters microbenchmark iterations of mech
// under cfg. mech "ondemand"
// uses the analytic model; the rest use the threaded engine.
func runMech(t *testing.T, mech string, cfg platform.Config, iters int) Result {
	t.Helper()
	w := workload.NewMicrobench(iters, workload.DefaultWorkCount, 1)
	var r Result
	var err error
	switch mech {
	case "ondemand":
		r, err = RunOnDemandDevice(cfg, w)
	case "prefetch":
		r, err = RunPrefetch(cfg, w, 8, false)
	case "swqueue":
		r, err = RunSWQueue(cfg, w, 8, false)
	case "kernelq":
		r, err = RunKernelQueue(cfg, w, 8, false)
	default:
		t.Fatalf("unknown mech %q", mech)
	}
	if err != nil {
		t.Fatalf("%s: %v", mech, err)
	}
	return r
}

var traceMechs = []string{"ondemand", "prefetch", "swqueue", "kernelq"}

func TestTraceSpansMatchAccesses(t *testing.T) {
	for _, mech := range traceMechs {
		rec := trace.NewRecorder()
		r := traceRun(t, mech, rec)
		sum := rec.Summary()
		if len(sum.Runs) != 1 {
			t.Fatalf("%s: %d trace runs, want 1", mech, len(sum.Runs))
		}
		rs := sum.Runs[0]
		if rs.Spans != r.Accesses {
			t.Errorf("%s: %d completed spans, %d accesses", mech, rs.Spans, r.Accesses)
		}
		if rs.OpenSpans != 0 {
			t.Errorf("%s: %d spans never ended", mech, rs.OpenSpans)
		}
		if rs.Label != r.Label {
			t.Errorf("%s: trace label %q != measurement label %q", mech, rs.Label, r.Label)
		}
		if r.Diag.TraceEvents == 0 {
			t.Errorf("%s: Diagnostics.TraceEvents = 0 on a traced run", mech)
		}
	}
}

func TestTraceByteIdenticalAcrossRuns(t *testing.T) {
	for _, mech := range traceMechs {
		a, b := trace.NewRecorder(), trace.NewRecorder()
		traceRun(t, mech, a)
		traceRun(t, mech, b)
		if a.String() != b.String() {
			t.Errorf("%s: same seed produced different trace bytes", mech)
		}
	}
}

func TestTraceDoesNotPerturbMeasurement(t *testing.T) {
	for _, mech := range traceMechs {
		traced := traceRun(t, mech, trace.NewRecorder())
		bare := traceRun(t, mech, nil)
		if traced.ElapsedSeconds != bare.ElapsedSeconds {
			t.Errorf("%s: traced elapsed %v != untraced %v — tracing changed timing",
				mech, traced.ElapsedSeconds, bare.ElapsedSeconds)
		}
		if traced.Accesses != bare.Accesses || traced.AccessP50Ns != bare.AccessP50Ns ||
			traced.AccessP99Ns != bare.AccessP99Ns {
			t.Errorf("%s: traced measurement diverged from untraced", mech)
		}
		if bare.Diag.TraceEvents != 0 {
			t.Errorf("%s: untraced run recorded %d trace events", mech, bare.Diag.TraceEvents)
		}
	}
}

func TestTraceOccupancyTracks(t *testing.T) {
	rec := trace.NewRecorder()
	traceRun(t, "prefetch", rec)
	rs := rec.Summary().Runs[0]
	for _, want := range []string{"lfb/core0", "chipq", "sq/core0", "cq/core0", "runnable/core0"} {
		found := false
		for _, name := range rs.CounterTracks {
			if name == want {
				found = true
			}
		}
		if !found {
			t.Errorf("prefetch trace missing counter track %q (have %v)", want, rs.CounterTracks)
		}
	}
	// The LFB and chip-queue timelines must actually move.
	if rs.CounterSamples < 2*rs.Spans {
		t.Errorf("only %d counter samples for %d spans: occupancy hooks not firing",
			rs.CounterSamples, rs.Spans)
	}
	for _, tk := range []string{"core0", "pcie-down", "pcie-up"} {
		found := false
		for _, name := range rs.Tracks {
			if name == tk {
				found = true
			}
		}
		if !found {
			t.Errorf("missing thread track %q (have %v)", tk, rs.Tracks)
		}
	}
	if rs.Slices == 0 {
		t.Error("no PCIe TLP slices recorded")
	}
}

func TestTraceSWQueueLifecycleEdges(t *testing.T) {
	rec := trace.NewRecorder()
	traceRun(t, "swqueue", rec)
	rs := rec.Summary().Runs[0]
	for _, edge := range []string{"desc-fetched", "resp-sent", "data-landed", "completion-posted"} {
		if rs.PointCounts[edge] == 0 {
			t.Errorf("swqueue spans missing the %q edge (have %v)", edge, rs.PointCounts)
		}
	}
}

func TestTraceExportValidatesAndRoundTrips(t *testing.T) {
	rec := trace.NewRecorder()
	for _, mech := range traceMechs {
		traceRun(t, mech, rec)
	}
	live := rec.Summary()
	parsed, err := trace.ReadSummary(strings.NewReader(rec.String()))
	if err != nil {
		t.Fatalf("multi-run export failed schema validation: %v", err)
	}
	if len(parsed.Runs) != len(traceMechs) || parsed.Events != live.Events {
		t.Fatalf("parsed %d runs / %d events, live %d / %d",
			len(parsed.Runs), parsed.Events, len(live.Runs), live.Events)
	}
	for i := range parsed.Runs {
		if parsed.Runs[i].Spans != live.Runs[i].Spans ||
			parsed.Runs[i].TotalDurPs != live.Runs[i].TotalDurPs {
			t.Errorf("run %d: parsed summary diverges from live summary", i)
		}
	}
}

func TestDiagnosticsEngineCounters(t *testing.T) {
	r := traceRun(t, "prefetch", nil)
	if r.Diag.SimEvents == 0 {
		t.Error("Diagnostics.SimEvents = 0 after a threaded run")
	}
	if r.Diag.SimPending != 0 {
		t.Errorf("Diagnostics.SimPending = %d after a drained run", r.Diag.SimPending)
	}
	if r.Diag.MeanLFBOccupancy <= 0 {
		t.Errorf("MeanLFBOccupancy = %v, want positive under 8 threads", r.Diag.MeanLFBOccupancy)
	}
	if r.Diag.MeanChipOccupancy <= 0 {
		t.Errorf("MeanChipOccupancy = %v, want positive", r.Diag.MeanChipOccupancy)
	}
	if r.MeanLFBOccupancy != r.Diag.MeanLFBOccupancy {
		t.Error("Measurement occupancy mean not populated from diagnostics")
	}
	if r.AccessP50Ns != r.Diag.AccessP50Ns || r.AccessP50Ns <= 0 {
		t.Errorf("Measurement.AccessP50Ns = %v, Diag %v", r.AccessP50Ns, r.Diag.AccessP50Ns)
	}
}

// TestTraceRecordingRunExcluded pins that a replay run traces only the
// measured run, with and without the separate recording run a fault
// plan brings: a traced recording run would double every span.
func TestTraceRecordingRunExcluded(t *testing.T) {
	for _, plan := range []fault.Plan{{}, {Seed: 1, StragglerProb: 0.01, StragglerFactor: 2}} {
		w := workload.NewMicrobench(40, workload.DefaultWorkCount, 1)
		cfg := platform.Default()
		cfg.Faults = plan
		rec := trace.NewRecorder()
		cfg.Trace = rec
		r, err := RunPrefetch(cfg, w, 4, true)
		if err != nil {
			t.Fatal(err)
		}
		sum := rec.Summary()
		if len(sum.Runs) != 1 {
			t.Fatalf("faults=%v: %d trace runs for one replayed measurement, want 1 (measured only)", plan.Enabled(), len(sum.Runs))
		}
		if sum.Runs[0].Spans != r.Accesses {
			t.Errorf("faults=%v: %d spans, %d accesses", plan.Enabled(), sum.Runs[0].Spans, r.Accesses)
		}
	}
}
