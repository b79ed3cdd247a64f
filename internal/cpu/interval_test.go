package cpu

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/sim"
)

func cfg() platform.Config { return platform.Default() }

func TestEmptyTrace(t *testing.T) {
	r := RunOnDemand(cfg(), nil, sim.Microsecond, 10, 0)
	if r.Elapsed != 0 || r.Accesses != 0 || r.WorkInstr != 0 {
		t.Errorf("empty trace result = %+v", r)
	}
}

func TestSingleIteration(t *testing.T) {
	c := cfg()
	r := RunOnDemand(c, UniformTrace(1, 1, 200), sim.Microsecond, 10, 0)
	want := sim.Microsecond + c.WorkTime(200)
	if r.Elapsed != want {
		t.Errorf("elapsed %v, want %v (latency + work)", r.Elapsed, want)
	}
	if r.Accesses != 1 || r.WorkInstr != 200 {
		t.Errorf("accesses=%d work=%d", r.Accesses, r.WorkInstr)
	}
}

func TestWorkDependsOnLoad(t *testing.T) {
	// Work cannot start before its load completes, however small it is.
	c := cfg()
	r := RunOnDemand(c, UniformTrace(1, 1, 1), 500*sim.Nanosecond, 10, 0)
	if r.Elapsed < 500*sim.Nanosecond {
		t.Errorf("elapsed %v precedes load completion", r.Elapsed)
	}
}

func TestWindowLimitsOverlap(t *testing.T) {
	c := cfg() // window 192
	// Iterations much longer than the window: no cross-iteration
	// overlap, so time ~ n*(latency + work).
	n := 50
	long := RunOnDemand(c, UniformTrace(n, 1, 5000), sim.Microsecond, 10, 0)
	wantSerial := sim.Time(n) * (sim.Microsecond + c.WorkTime(5000))
	if long.Elapsed < wantSerial*95/100 {
		t.Errorf("long-work elapsed %v, want ~%v (no overlap)", long.Elapsed, wantSerial)
	}

	// Short iterations fit several times into the window: substantial
	// overlap, so much faster than serial.
	short := RunOnDemand(c, UniformTrace(n, 1, 50), sim.Microsecond, 10, 0)
	serialShort := sim.Time(n) * (sim.Microsecond + c.WorkTime(50))
	if short.Elapsed > serialShort*70/100 {
		t.Errorf("short-work elapsed %v vs serial %v: window found no overlap", short.Elapsed, serialShort)
	}
}

func TestOutstandingLimitBinds(t *testing.T) {
	c := cfg()
	c.WindowSize = 100000 // window never binds
	// 100 iterations of 1 load + tiny work, 1us latency, limit 2:
	// throughput ~ 2 loads per microsecond.
	n := 100
	r := RunOnDemand(c, UniformTrace(n, 1, 1), sim.Microsecond, 2, 0)
	wantMin := sim.Time(n/2) * sim.Microsecond
	if r.Elapsed < wantMin {
		t.Errorf("elapsed %v, want >= %v with 2 slots", r.Elapsed, wantMin)
	}
	if r.Elapsed > wantMin+2*sim.Microsecond {
		t.Errorf("elapsed %v far above slot-limited bound %v", r.Elapsed, wantMin)
	}
}

func TestSlotLimitCappedByLFB(t *testing.T) {
	c := cfg() // 10 LFBs
	c.WindowSize = 100000
	n := 100
	// Asking for 48 outstanding still caps at 10 LFBs per core.
	r := RunOnDemand(c, UniformTrace(n, 1, 1), sim.Microsecond, 48, 0)
	wantMin := sim.Time(n/10) * sim.Microsecond
	if r.Elapsed < wantMin*95/100 || r.Elapsed > wantMin*120/100 {
		t.Errorf("elapsed %v, want ~%v (10-LFB cap)", r.Elapsed, wantMin)
	}
}

func TestMLPBatchIssuesTogether(t *testing.T) {
	c := cfg()
	// One iteration with 4 independent loads: they overlap fully, so a
	// single latency covers all of them.
	r := RunOnDemand(c, UniformTrace(1, 4, 100), sim.Microsecond, 10, 0)
	want := sim.Microsecond + c.WorkTime(100)
	if r.Elapsed != want {
		t.Errorf("elapsed %v, want %v (4 parallel loads)", r.Elapsed, want)
	}
	if r.Accesses != 4 {
		t.Errorf("accesses = %d", r.Accesses)
	}
}

func TestDRAMBaselineFasterThanDevice(t *testing.T) {
	c := cfg()
	trace := UniformTrace(1000, 1, 200)
	dram := DRAMBaseline(c, trace)
	dev := DeviceOnDemandObserved(c, trace, nil, nil)
	if dram.Elapsed >= dev.Elapsed {
		t.Errorf("DRAM %v not faster than device %v", dram.Elapsed, dev.Elapsed)
	}
	// Fig 2's headline: at moderate work counts the on-demand device is
	// abysmal — well under 20% of DRAM.
	ratio := float64(dram.Elapsed) / float64(dev.Elapsed)
	if ratio > 0.2 {
		t.Errorf("on-demand device at %.2f of DRAM, paper says abysmal (<0.2)", ratio)
	}
}

func TestLargeWorkAbatesDevicePenalty(t *testing.T) {
	// Fig 2: "Only when there is a large amount of work per device
	// access (e.g., 5,000 instructions), the performance impact of the
	// device access is partially abated."
	c := cfg()
	trace := UniformTrace(200, 1, 5000)
	dram := DRAMBaseline(c, trace)
	dev := DeviceOnDemandObserved(c, trace, nil, nil)
	ratio := float64(dram.Elapsed) / float64(dev.Elapsed)
	if ratio < 0.5 || ratio > 0.9 {
		t.Errorf("5000-instr ratio %.2f, want partial abatement (0.5..0.9)", ratio)
	}
}

func TestNormalizedDecreasesWithLatency(t *testing.T) {
	c := cfg()
	trace := UniformTrace(500, 1, 200)
	base := DRAMBaseline(c, trace).Elapsed
	var prev float64 = 2
	for _, lat := range []sim.Time{1, 2, 4} {
		dev := DeviceOnDemandObserved(c.WithLatency(lat*sim.Microsecond), trace, nil, nil)
		norm := float64(base) / float64(dev.Elapsed)
		if norm >= prev {
			t.Errorf("normalized perf not decreasing at %vus: %.3f >= %.3f", lat, norm, prev)
		}
		prev = norm
	}
}

func TestZeroReadsTreatedAsOne(t *testing.T) {
	c := cfg()
	r := RunOnDemand(c, []IterSpec{{Reads: 0, WorkInstr: 10}}, sim.Microsecond, 10, 0)
	if r.Accesses != 1 {
		t.Errorf("accesses = %d, want 1 (clamped)", r.Accesses)
	}
}

func TestUniformTrace(t *testing.T) {
	tr := UniformTrace(3, 2, 100)
	if n := Iterations(tr); n != 3 {
		t.Fatalf("iterations = %d", n)
	}
	for _, it := range tr {
		if it.Reads != 2 || it.WorkInstr != 100 {
			t.Errorf("iter = %+v", it)
		}
	}
	if tr := UniformTrace(0, 2, 100); len(tr) != 0 {
		t.Errorf("UniformTrace(0) = %+v, want the empty trace", tr)
	}
}

// TestRepeatMatchesExpandedTrace pins that a repeated spec runs
// exactly as the same iterations written out one by one, with a fault
// draw and an observer attached, and across a mix of spec shapes.
func TestRepeatMatchesExpandedTrace(t *testing.T) {
	c := cfg()
	packed := []IterSpec{
		{Reads: 2, WorkInstr: 150, Repeat: 40},
		{Reads: 1, WorkInstr: 10, Dependent: true, Repeat: 7},
		{Reads: 0, WorkInstr: 3},
		{Reads: 12, WorkInstr: 5000, Repeat: 3},
		{Reads: 1, WorkInstr: 0, Repeat: 1},
	}
	var expanded []IterSpec
	for _, it := range packed {
		for range it.Iterations() {
			expanded = append(expanded, IterSpec{Reads: it.Reads, WorkInstr: it.WorkInstr, Dependent: it.Dependent})
		}
	}
	if Iterations(packed) != len(expanded) {
		t.Fatalf("Iterations = %d, want %d", Iterations(packed), len(expanded))
	}
	run := func(trace []IterSpec) (OnDemandResult, []sim.Time) {
		var seq uint64
		draw := func() fault.AccessOutcome {
			seq++
			out := fault.AccessOutcome{Latency: sim.Microsecond + sim.Time(seq%7)*100*sim.Nanosecond}
			if seq%11 == 0 {
				out.Retries, out.Timeouts = 1, 1
			}
			return out
		}
		var times []sim.Time
		observe := func(issue, complete sim.Time, _ fault.AccessOutcome) {
			times = append(times, issue, complete)
		}
		return runOnDemand(c, trace, sim.Microsecond, 10, 3*sim.Nanosecond, draw, observe), times
	}
	got, gotTimes := run(packed)
	want, wantTimes := run(expanded)
	if got.Elapsed != want.Elapsed || got.Accesses != want.Accesses || got.WorkInstr != want.WorkInstr ||
		got.Retries != want.Retries || got.Timeouts != want.Timeouts || got.Abandoned != want.Abandoned {
		t.Errorf("repeated trace = %+v, expanded = %+v", got, want)
	}
	if !slices.Equal(gotTimes, wantTimes) {
		t.Error("repeated trace issued or completed a load at a different time than the expanded trace")
	}
}

// Property: elapsed time is monotone in latency and never less than the
// pure work time or a single latency.
func TestElapsedBoundsProperty(t *testing.T) {
	c := cfg()
	f := func(iters, work uint8, latUs uint8) bool {
		n := int(iters%32) + 1
		w := int(work) * 10
		lat := sim.Time(int(latUs%8)+1) * 500 * sim.Nanosecond
		r := RunOnDemand(c, UniformTrace(n, 1, w), lat, 10, 0)
		r2 := RunOnDemand(c, UniformTrace(n, 1, w), 2*lat, 10, 0)
		minBound := sim.Time(n)*c.WorkTime(w) + lat
		return r.Elapsed >= minBound && r2.Elapsed >= r.Elapsed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: throughput never exceeds the outstanding-limit bound
// (accesses per latency window <= maxOutstanding).
func TestLittleLawBoundProperty(t *testing.T) {
	c := cfg()
	c.WindowSize = 100000
	f := func(slots uint8) bool {
		s := int(slots%10) + 1
		n := 64
		r := RunOnDemand(c, UniformTrace(n, 1, 1), sim.Microsecond, s, 0)
		// n accesses need at least ceil(n/s) latency windows.
		waves := (n + s - 1) / s
		return r.Elapsed >= sim.Time(waves-1)*sim.Microsecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
