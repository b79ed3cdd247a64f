package telemetry

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// us is a test-readable microsecond in sim time.
func us(v float64) sim.Time { return sim.FromNanoseconds(v * 1e3) }

// captureSink collects every published window in order.
type captureSink struct {
	events []WindowEvent
}

func (c *captureSink) PublishWindow(ev WindowEvent) { c.events = append(c.events, ev) }

func TestRecorderWindowBucketing(t *testing.T) {
	r := NewRecorder("run", us(10), 0, nil)
	r.Started(us(1))
	r.Finished(us(2))
	r.Sample(us(2), us(1))
	r.Started(us(11))
	r.Started(us(12))
	r.Switches(us(13), 2)
	r.Started(us(21))
	r.Retries(us(22), 1)
	r.Timeouts(us(23), 1)
	r.Abandoned(us(24), 1)
	ts := r.Finish(us(25))

	if got := ts.Windows(); got != 3 {
		t.Fatalf("windows = %d, want 3", got)
	}
	if err := ts.Validate(); err != nil {
		t.Fatalf("series invalid: %v", err)
	}
	if ts.WindowUs != 10 {
		t.Errorf("WindowUs = %g, want 10", ts.WindowUs)
	}
	if ts.LastSpanUs != 5 {
		t.Errorf("LastSpanUs = %g, want a 5us partial window", ts.LastSpanUs)
	}
	if want := []uint64{1, 2, 1}; !reflect.DeepEqual(ts.Starts, want) {
		t.Errorf("Starts = %v, want %v", ts.Starts, want)
	}
	if want := []uint64{1, 0, 0}; !reflect.DeepEqual(ts.Completes, want) {
		t.Errorf("Completes = %v, want %v", ts.Completes, want)
	}
	if ts.Switches[1] != 2 || ts.Retries[2] != 1 || ts.Timeouts[2] != 1 || ts.Abandoned[2] != 1 {
		t.Errorf("event columns misplaced: switches=%v retries=%v timeouts=%v abandoned=%v",
			ts.Switches, ts.Retries, ts.Timeouts, ts.Abandoned)
	}
	// The 1us latency sample lands in window 0; empty windows answer 0.
	if ts.P50Ns[0] != 1000 || ts.P50Ns[1] != 0 {
		t.Errorf("P50Ns = %v, want [1000 0 0]", ts.P50Ns)
	}
	if ts.TotalStarts != 4 || ts.TotalCompletes != 1 || ts.TotalSwitches != 2 {
		t.Errorf("totals: starts=%d completes=%d switches=%d", ts.TotalStarts, ts.TotalCompletes, ts.TotalSwitches)
	}
	if ts.TotalP50Ns != 1000 {
		t.Errorf("TotalP50Ns = %g, want 1000", ts.TotalP50Ns)
	}
}

func TestRecorderCoalescingConservesTotals(t *testing.T) {
	r := NewRecorder("run", us(1), 4, nil)
	const n = 200
	for i := 0; i < n; i++ {
		at := sim.Time(i) * us(1) / 2 // an event every 0.5us over 100us
		r.Started(at)
		r.Finished(at)
		r.Sample(at, us(1))
	}
	ts := r.Finish(us(100))

	if ts.Coalesced == 0 {
		t.Fatal("expected ring coalescing with maxWindows=4 over 100 windows' worth of events")
	}
	if got := ts.Windows(); got > 4 {
		t.Errorf("windows = %d, want <= maxWindows 4", got)
	}
	// The window doubled coalesced times.
	if want := stats.Float(int64(1) << ts.Coalesced); ts.WindowUs != want {
		t.Errorf("WindowUs = %g, want %g after %d doublings", ts.WindowUs, want, ts.Coalesced)
	}
	var sum uint64
	for _, v := range ts.Starts {
		sum += v
	}
	if sum != n || ts.TotalStarts != n || ts.TotalCompletes != n {
		t.Errorf("conservation: sum=%d TotalStarts=%d TotalCompletes=%d, want %d", sum, ts.TotalStarts, ts.TotalCompletes, n)
	}
	if ts.TotalP50Ns != 1000 {
		t.Errorf("rollup p50 = %g, want 1000 (histograms must survive merging)", ts.TotalP50Ns)
	}
	if err := ts.Validate(); err != nil {
		t.Errorf("series invalid: %v", err)
	}
}

func TestRecorderGaugeIntegral(t *testing.T) {
	r := NewRecorder("run", us(10), 0, nil)
	r.GaugeAdd(GaugeLFB, 0, 2)      // 2 slots over [0, 5us)
	r.GaugeAdd(GaugeLFB, us(5), -1) // 1 slot over [5us, 10us)
	r.GaugeAdd(GaugeSQ, us(12), 3)  // second window only
	ts := r.Finish(us(20))

	if math.Abs(float64(ts.LFBMean[0])-1.5) > 1e-9 {
		t.Errorf("LFBMean[0] = %g, want 1.5 (time-weighted)", ts.LFBMean[0])
	}
	if ts.LFBMax[0] != 2 {
		t.Errorf("LFBMax[0] = %d, want 2", ts.LFBMax[0])
	}
	// The gauge level persists across the boundary: 1 slot all window.
	if math.Abs(float64(ts.LFBMean[1])-1.0) > 1e-9 || ts.LFBMax[1] != 1 {
		t.Errorf("carry-over window: mean=%g max=%d, want 1/1", ts.LFBMean[1], ts.LFBMax[1])
	}
	if math.Abs(float64(ts.SQMean[1])-3*0.8) > 1e-9 { // 3 over [12us, 20us) of a 10us window
		t.Errorf("SQMean[1] = %g, want 2.4", ts.SQMean[1])
	}
	if ts.SQMean[0] != 0 || ts.SQMax[0] != 0 {
		t.Errorf("SQ window 0 = %g/%d, want empty", ts.SQMean[0], ts.SQMax[0])
	}
}

func TestRecorderSinkPublishOrder(t *testing.T) {
	sink := &captureSink{}
	r := NewRecorder("fig3 cell", us(10), 0, sink)
	for i := 0; i < 5; i++ {
		r.Started(sim.Time(i) * us(10)) // one event exactly on each boundary
	}
	ts := r.Finish(us(45))

	if len(sink.events) != ts.Windows() {
		t.Fatalf("published %d windows, series has %d", len(sink.events), ts.Windows())
	}
	for i, ev := range sink.events {
		if ev.Index != i {
			t.Errorf("event %d has Index %d; publish order must be the seal order", i, ev.Index)
		}
		if ev.Label != "fig3 cell" {
			t.Errorf("event label %q", ev.Label)
		}
		if i > 0 && ev.StartPs != sink.events[i-1].StartPs+sink.events[i-1].SpanPs {
			t.Errorf("event %d not contiguous: start %d after span ending %d",
				i, ev.StartPs, sink.events[i-1].StartPs+sink.events[i-1].SpanPs)
		}
		if ev.Starts != ts.Starts[i] {
			t.Errorf("event %d Starts=%d, series says %d", i, ev.Starts, ts.Starts[i])
		}
	}
	if last := sink.events[len(sink.events)-1]; last.SpanPs != int64(us(5)) {
		t.Errorf("final published span = %d, want the 5us partial window", last.SpanPs)
	}
}

func TestRecorderNonMonotoneEventFallsIntoCurrentWindow(t *testing.T) {
	r := NewRecorder("run", us(10), 0, nil)
	r.Started(us(15)) // cursor now in window [10, 20)
	r.Finished(us(5)) // a completion that "regressed" — counted where observed
	ts := r.Finish(us(20))
	if ts.Completes[0] != 0 || ts.Completes[1] != 1 {
		t.Errorf("Completes = %v, want the regressed event in the current window", ts.Completes)
	}
}

func TestRecorderFinishIdempotentAndNilSafe(t *testing.T) {
	// Every recording method is a no-op on a nil recorder, so core
	// calls them unconditionally.
	var nilRec *Recorder
	nilRec.Started(us(1))
	nilRec.Finished(us(2))
	nilRec.Sample(us(2), us(1))
	nilRec.Retries(us(3), 1)
	nilRec.Timeouts(us(3), 1)
	nilRec.Abandoned(us(3), 1)
	nilRec.Switches(us(4), 1)
	nilRec.PhaseSample(us(5), []int64{1, 2})
	nilRec.GaugeAdd(GaugeLFB, us(6), 1)
	if nilRec.Finish(us(10)) != nil {
		t.Error("nil recorder must Finish to nil")
	}
	r := NewRecorder("run", us(10), 0, nil)
	r.Started(us(1))
	a := r.Finish(us(5))
	r.Started(us(100)) // after Finish: ignored
	b := r.Finish(us(200))
	if !reflect.DeepEqual(a, b) {
		t.Error("Finish must be idempotent and freeze the series")
	}
}

func TestRecorderDeterministic(t *testing.T) {
	mk := func() *stats.TimeSeries {
		r := NewRecorder("run", us(2), 8, nil)
		for i := 0; i < 500; i++ {
			at := sim.Time(i) * us(1) / 3
			r.Started(at)
			r.Sample(at, sim.Time(i%7)*us(1))
			r.GaugeAdd(GaugeChip, at, i%3-1)
		}
		return r.Finish(us(200))
	}
	if !reflect.DeepEqual(mk(), mk()) {
		t.Error("identical event streams must produce identical series")
	}
}

func TestEffectiveMaxWindows(t *testing.T) {
	cases := map[int]int{0: DefaultMaxWindows, -1: DefaultMaxWindows, 1: 2, 2: 2, 5: 6, 8: 8, 257: 258}
	for in, want := range cases {
		if got := EffectiveMaxWindows(in); got != want {
			t.Errorf("EffectiveMaxWindows(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestRecorderSteadyStateAllocs: once the ring has filled and coalesced,
// a recorder with about 70 latency samples and a phase row per window
// reuses the histograms and rows coalescing frees, so sealing a window
// allocates next to nothing.
func TestRecorderSteadyStateAllocs(t *testing.T) {
	r := NewRecorder("run", us(10), 16, nil)
	r.SetPhaseNames([]string{"a", "b", "c"})
	ps := []int64{1, 2, 3}
	at, i := sim.Time(0), int64(0)
	// record covers n windows of the current span, ~70 samples each:
	// microsecond latencies with a jitter and a rare 30us straggler.
	record := func(n int) {
		end := at + sim.Time(n)*r.window
		for at < end {
			lat := us(1) + sim.Time(i*7919%200_000)
			if i%97 == 0 {
				lat = us(30)
			}
			r.Started(at)
			r.Sample(at, lat)
			r.PhaseSample(at, ps)
			at += r.window / 70
			i++
		}
	}
	record(64) // fill the ring and coalesce a few times
	before := r.seq
	allocs := testing.AllocsPerRun(4, func() { record(32) })
	sealed := float64(r.seq-before) / 5 // AllocsPerRun adds one warm-up run
	if perWindow := allocs / sealed; perWindow > 0.1 {
		t.Errorf("steady state allocates %.2f objects per sealed window (%v per run of %.0f windows), want ~0",
			perWindow, allocs, sealed)
	}
	if r.coalesced < 4 {
		t.Fatalf("only %d coalescings; the test must reach steady state", r.coalesced)
	}
	ts := r.Finish(at)
	if ts.TotalStarts != uint64(i) || ts.TotalP999Ns < 29_000 {
		t.Errorf("series totals: starts=%d (want %d), p999=%v", ts.TotalStarts, i, ts.TotalP999Ns)
	}
}
