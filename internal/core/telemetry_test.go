package core

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// metricsCfg returns the default platform with the flight recorder
// enabled at a 10us window.
func metricsCfg() platform.Config {
	cfg := platform.Default()
	cfg.MetricsWindow = 10 * sim.Microsecond
	return cfg
}

func TestRecorderSeriesPresentOnlyWhenEnabled(t *testing.T) {
	w := ubench(testIters)
	plain := must(RunPrefetch(platform.Default(), w, 4, false))
	if plain.Series != nil {
		t.Error("recorder disabled but Result.Series is set")
	}
	rec := must(RunPrefetch(metricsCfg(), w, 4, false))
	if rec.Series == nil {
		t.Fatal("recorder enabled but Result.Series is nil")
	}
	if err := rec.Series.Validate(); err != nil {
		t.Fatalf("series invalid: %v", err)
	}
}

// TestRecorderTotalsMatchCounters cross-checks the flight recorder
// against the mechanisms' own counters for every mechanism, fault-free
// and under fault injection (which drives the timeout, retry, and
// abandon edges): the windowed starts must sum to the measured access
// count, the recovery and switch totals must equal the diagnostics'
// counts, and every started access must complete exactly once.
func TestRecorderTotalsMatchCounters(t *testing.T) {
	w := ubench(testIters)
	faulty := metricsCfg()
	faulty.Faults = fault.Plan{Seed: 7, DropCompletionProb: 0.3, StragglerProb: 0.05, DuplicateProb: 0.05}
	faulty.MaxRetries = 1
	for _, tc := range []struct {
		name string
		cfg  platform.Config
	}{{"fault-free", metricsCfg()}, {"faulty", faulty}} {
		cfg := tc.cfg
		runs := map[string]Result{
			"prefetch": must(RunPrefetch(cfg, w, 4, false)),
			"swqueue":  must(RunSWQueue(cfg, w, 4, false)),
			"kernelq":  must(RunKernelQueue(cfg, w, 2, false)),
			"ondemand": must(RunOnDemandDevice(cfg, w)),
		}
		for name, r := range runs {
			name := tc.name + "/" + name
			ts := r.Series
			if ts == nil {
				t.Errorf("%s: no series", name)
				continue
			}
			if ts.TotalStarts != uint64(r.Accesses) {
				t.Errorf("%s: recorder starts %d != measured accesses %d", name, ts.TotalStarts, r.Accesses)
			}
			if ts.TotalCompletes != ts.TotalStarts {
				t.Errorf("%s: completes %d != starts %d", name, ts.TotalCompletes, ts.TotalStarts)
			}
			d := r.Diag
			if ts.TotalRetries != d.Retries || ts.TotalTimeouts != d.Timeouts ||
				ts.TotalAbandoned != d.Abandoned || ts.TotalSwitches != d.Switches {
				t.Errorf("%s: recorder (retries %d, timeouts %d, abandoned %d, switches %d) != diag (%d, %d, %d, %d)",
					name, ts.TotalRetries, ts.TotalTimeouts, ts.TotalAbandoned, ts.TotalSwitches,
					d.Retries, d.Timeouts, d.Abandoned, d.Switches)
			}
			if tc.name == "faulty" && (d.Retries == 0 || d.Timeouts == 0 || d.Abandoned == 0) {
				t.Errorf("%s: plan exercised no recovery: retries=%d timeouts=%d abandoned=%d",
					name, d.Retries, d.Timeouts, d.Abandoned)
			}
			if ts.TotalP99Ns <= 0 {
				t.Errorf("%s: rollup p99 = %g, want positive", name, ts.TotalP99Ns)
			}
			if err := ts.Validate(); err != nil {
				t.Errorf("%s: invalid series: %v", name, err)
			}
		}
		// The prefetch mechanism must show LFB occupancy; the queue
		// mechanisms must show software-queue occupancy instead.
		pf := runs["prefetch"].Series
		var lfb float64
		for _, v := range pf.LFBMean {
			lfb += float64(v)
		}
		if lfb == 0 {
			t.Errorf("%s/prefetch: LFB gauge never moved", tc.name)
		}
		sq := runs["swqueue"].Series
		var sqSum float64
		for _, v := range sq.SQMean {
			sqSum += float64(v)
		}
		if sqSum == 0 {
			t.Errorf("%s/swqueue: request-queue gauge never moved", tc.name)
		}
	}
}

func TestRecorderDoesNotPerturbMeasurement(t *testing.T) {
	// Telemetry is observational: enabling it must not change the
	// simulated result (same events, same timings, same measurement).
	w := ubench(testIters)
	plain := must(RunPrefetch(platform.Default(), w, 8, false))
	rec := must(RunPrefetch(metricsCfg(), w, 8, false))
	if !reflect.DeepEqual(plain.Measurement, rec.Measurement) {
		t.Errorf("recorder changed the measurement:\nplain: %+v\nrec:   %+v", plain.Measurement, rec.Measurement)
	}
	if !reflect.DeepEqual(plain.Diag, rec.Diag) {
		t.Errorf("recorder changed the diagnostics:\nplain: %+v\nrec:   %+v", plain.Diag, rec.Diag)
	}
}

func TestRecorderDeterministicAcrossRuns(t *testing.T) {
	w := ubench(testIters)
	a := must(RunSWQueue(metricsCfg(), w, 4, false))
	b := must(RunSWQueue(metricsCfg(), w, 4, false))
	if !reflect.DeepEqual(a.Series, b.Series) {
		t.Error("identical runs produced different series")
	}
}

// TestRecorderSinkSeesEveryWindow wires a sink through the platform
// config and checks the published stream against the finished series.
func TestRecorderSinkSeesEveryWindow(t *testing.T) {
	sink := &collectSink{}
	cfg := metricsCfg()
	cfg.MetricsSink = sink
	r := must(RunPrefetch(cfg, ubench(testIters), 4, false))
	if len(sink.events) != r.Series.Windows() {
		t.Fatalf("sink saw %d windows, series has %d", len(sink.events), r.Series.Windows())
	}
	var starts uint64
	for i, ev := range sink.events {
		if ev.Index != i {
			t.Errorf("event %d published out of order (Index %d)", i, ev.Index)
		}
		starts += ev.Starts
	}
	if starts != r.Series.TotalStarts {
		t.Errorf("published starts %d != series total %d", starts, r.Series.TotalStarts)
	}
}

type collectSink struct {
	events []telemetry.WindowEvent
}

func (c *collectSink) PublishWindow(ev telemetry.WindowEvent) { c.events = append(c.events, ev) }
