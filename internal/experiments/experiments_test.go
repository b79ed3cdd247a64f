package experiments

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// The experiment tests use the Quick sweep: they assert the paper's
// qualitative shapes (who wins, where curves knee), not absolute values.

func quickSuite() Suite {
	s := Quick()
	s.Iterations = 600
	s.AppLookups = 120
	s.Threads = []int{1, 2, 4, 8, 10, 16}
	return s
}

func TestFig2Shape(t *testing.T) {
	tb := quickSuite().Fig2()
	if len(tb.Series) != 3 {
		t.Fatalf("series = %d, want 3 latencies", len(tb.Series))
	}
	for _, s := range tb.Series {
		// Monotone improvement with work count, abysmal at 200.
		if s.YAt(200) > 0.15 {
			t.Errorf("%s at work=200: %.3f, want abysmal", s.Label, s.YAt(200))
		}
		if s.YAt(5000) <= s.YAt(200) {
			t.Errorf("%s: no abatement with work", s.Label)
		}
	}
	// Lower latency is strictly better at every work count.
	s1, s4 := tb.FindSeries("1us"), tb.FindSeries("4us")
	for i := range s1.X {
		if s1.Y[i] <= s4.Y[i] {
			t.Errorf("1us not above 4us at work=%.0f", s1.X[i])
		}
	}
}

func TestFig3Shape(t *testing.T) {
	tb := quickSuite().Fig3()
	s1 := tb.FindSeries("1us")
	// Rises with threads to near-DRAM at 10, flat afterward (LFB cap).
	if s1.YAt(10) < 0.7 {
		t.Errorf("1us at 10 threads = %.3f, want near DRAM", s1.YAt(10))
	}
	// Past 10 threads the LFB pool caps in-flight accesses at 10; the
	// curve may still creep a few percent toward the 10-in-flight floor.
	if s1.YAt(16) > s1.YAt(10)*1.10 {
		t.Errorf("1us grew past the 10-LFB cap: %.3f -> %.3f", s1.YAt(10), s1.YAt(16))
	}
	// Shallower slope for slower devices (§V-B).
	s4 := tb.FindSeries("4us")
	if s4.YAt(10) >= s1.YAt(10) {
		t.Error("4us should sit below 1us at 10 threads")
	}
}

func TestFig4Shape(t *testing.T) {
	tb := quickSuite().Fig4()
	// More work per access: fewer threads needed to reach a given
	// fraction of the peak.
	w100 := tb.FindSeries("work=100")
	w1000 := tb.FindSeries("work=1000")
	if w1000.KneeX(0.9) >= w100.KneeX(0.9) {
		t.Errorf("work=1000 saturates at %.0f threads, work=100 at %.0f; want fewer with more work",
			w1000.KneeX(0.9), w100.KneeX(0.9))
	}
}

func TestFig5Shape(t *testing.T) {
	tb := quickSuite().Fig5()
	// At 4us, more cores help (aggregate LFBs) but the 14-entry chip
	// queue caps the total: 8 cores is no better than ~14 in-flight.
	c1 := tb.FindSeries("4us 1c")
	c8 := tb.FindSeries("4us 8c")
	if c8.YAt(10) <= c1.YAt(10) {
		t.Error("multicore did not aggregate at 4us")
	}
	// Little's-law bound from the 14-entry queue: 14/4us accesses/s,
	// each carrying DefaultWorkCount work, over the 1-core baseline.
	_, peak := c8.Peak()
	c4 := tb.FindSeries("4us 4c")
	_, peak4 := c4.Peak()
	if peak > 1.3*peak4 {
		t.Errorf("8c peak %.3f should be capped near 4c peak %.3f by the chip queue", peak, peak4)
	}
}

func TestFig6Shape(t *testing.T) {
	tb := quickSuite().Fig6()
	r1 := tb.FindSeries("1-read")
	r4 := tb.FindSeries("4-read")
	// The 4-read variant saturates by ~3 threads: 4 and 16 threads are
	// no better than ~3 (allowing the partial 3rd-batch effect).
	if r4.YAt(16) > r4.YAt(4)*1.08 {
		t.Errorf("4-read grew from 4 to 16 threads: %.3f -> %.3f", r4.YAt(4), r4.YAt(16))
	}
	// The 1-read variant keeps gaining until 10.
	if r1.YAt(10) <= r1.YAt(4)*1.1 {
		t.Errorf("1-read saturated too early: %.3f at 4, %.3f at 10", r1.YAt(4), r1.YAt(10))
	}
}

func TestFig7Shape(t *testing.T) {
	tb := quickSuite().Fig7()
	pf4 := tb.FindSeries("prefetch 4us")
	sq4 := tb.FindSeries("swqueue 4us")
	// Past the LFB limit, SWQ keeps gaining while prefetch is flat.
	if sq4.YAt(32) <= sq4.YAt(10)*1.2 {
		t.Error("swqueue 4us did not scale past 10 threads")
	}
	if pf4.YAt(32) > pf4.YAt(10)*1.05 {
		t.Error("prefetch 4us scaled past the LFB limit")
	}
	// SWQ peak lands near 50% of DRAM.
	_, sqPeak := tb.FindSeries("swqueue 1us").Peak()
	if sqPeak < 0.38 || sqPeak > 0.6 {
		t.Errorf("swqueue 1us peak %.3f, want ~0.5", sqPeak)
	}
	// Prefetch 1us peak beats SWQ 1us peak (§V-C).
	_, pfPeak := tb.FindSeries("prefetch 1us").Peak()
	if pfPeak <= sqPeak {
		t.Errorf("prefetch peak %.3f should exceed swq peak %.3f", pfPeak, sqPeak)
	}
}

func TestFig8Shape(t *testing.T) {
	tb := quickSuite().Fig8()
	// Near-linear scaling 1 -> 4 cores at 1us.
	_, p1 := tb.FindSeries("1us 1c").Peak()
	_, p4 := tb.FindSeries("1us 4c").Peak()
	_, p8 := tb.FindSeries("1us 8c").Peak()
	if p4 < 3.0*p1 {
		t.Errorf("4-core scaling %.2fx of 1-core, want >3x", p4/p1)
	}
	// The PCIe wall: 8 cores gain much less than 2x over 4.
	if p8 > 1.75*p4 {
		t.Errorf("8-core peak %.3f vs 4-core %.3f: no bandwidth wall", p8, p4)
	}
	// The bandwidth note reports ~50% useful efficiency.
	found := false
	for _, n := range tb.Notes {
		if strings.Contains(n, "useful upstream bandwidth") {
			found = true
		}
	}
	if !found {
		t.Error("missing bandwidth note")
	}
}

func TestFig9Shape(t *testing.T) {
	tb := quickSuite().Fig9()
	// Single-core peaks order: 1-read > 2-read > 4-read (§V-C).
	var peaks [3]float64
	for i, label := range []string{"1c 1-read", "1c 2-read", "1c 4-read"} {
		_, peaks[i] = tb.FindSeries(label).Peak()
	}
	if !(peaks[0] > peaks[1] && peaks[1] > peaks[2]) {
		t.Errorf("single-core MLP peaks %.3v not decreasing", peaks)
	}
	if peaks[0] < 0.4 || peaks[0] > 0.6 {
		t.Errorf("1-read peak %.3f, want ~0.5", peaks[0])
	}
	if peaks[2] < 0.25 || peaks[2] > 0.45 {
		t.Errorf("4-read peak %.3f, want ~0.35", peaks[2])
	}
	// 4-core 4-read saturates below 16 threads (§V-C).
	c4r4 := tb.FindSeries("4c 4-read")
	if c4r4.YAt(16) > c4r4.YAt(8)*1.15 {
		t.Errorf("4c 4-read still scaling at 16 threads: %.3f -> %.3f", c4r4.YAt(8), c4r4.YAt(16))
	}
}

func TestFig10Shape(t *testing.T) {
	s := quickSuite()
	s.Threads = []int{1, 2, 4, 8}
	tables := s.Fig10()
	if len(tables) != 4 {
		t.Fatalf("fig10 tables = %d, want 4", len(tables))
	}
	oneCorePF, oneCoreSWQ := tables[0], tables[1]
	eightPF, eightSWQ := tables[2], tables[3]

	// Apps track the microbenchmark trends; every app has data.
	for _, tb := range tables {
		if len(tb.Series) != 4 {
			t.Fatalf("%s has %d series, want 3 apps + ubench", tb.ID, len(tb.Series))
		}
		for _, series := range tb.Series {
			if len(series.Y) == 0 || series.Y[0].IsNaN() {
				t.Fatalf("%s/%s empty", tb.ID, series.Label)
			}
		}
	}

	for _, series := range oneCorePF.Series {
		_, peak := series.Peak()
		// Paper band: 35-65% single-core prefetch (we allow some slack
		// on the quick sweep).
		if peak < 0.3 || peak > 0.85 {
			t.Errorf("1-core prefetch %s peak %.3f outside plausible band", series.Label, peak)
		}
		// SWQ trails prefetch on one core at its peak.
		_, sqPeak := oneCoreSWQ.FindSeries(series.Label).Peak()
		if sqPeak > peak*1.1 {
			t.Errorf("%s: 1-core SWQ peak %.3f above prefetch %.3f", series.Label, sqPeak, peak)
		}
	}

	// Eight-core SWQ exceeds the single-core DRAM baseline (paper:
	// 1.2x-2.0x); eight-core prefetch stays chip-queue-bound well below
	// its SWQ counterpart's peak.
	for _, series := range eightSWQ.Series {
		_, peak := series.Peak()
		if peak < 1.0 {
			t.Errorf("8-core SWQ %s peak %.3f, want >1x of single-core DRAM", series.Label, peak)
		}
	}
	for _, series := range eightPF.Series {
		_, pfPeak := series.Peak()
		_, sqPeak := eightSWQ.FindSeries(series.Label).Peak()
		if pfPeak > sqPeak {
			t.Errorf("8-core %s: prefetch %.3f above SWQ %.3f despite chip queue", series.Label, pfPeak, sqPeak)
		}
	}
}

func TestSteadyStateIndependentOfRunLength(t *testing.T) {
	// Normalized results are steady-state properties: doubling the run
	// length must not move them more than ~2%. Guards against warm-up
	// or drain effects leaking into measurements.
	s1, s2 := quickSuite(), quickSuite()
	s1.Iterations, s2.Iterations = 1500, 3000
	s1.Threads, s2.Threads = []int{10}, []int{10}
	a := s1.Fig3().FindSeries("1us").YAt(10)
	b := s2.Fig3().FindSeries("1us").YAt(10)
	if diff := (a - b) / b; diff > 0.02 || diff < -0.02 {
		t.Errorf("fig3@10t moved %.1f%% when run length doubled (%.4f vs %.4f)", diff*100, a, b)
	}
}

func TestAblationLFB(t *testing.T) {
	s := quickSuite()
	tb := s.AblationLFB()
	series := tb.Series[0]
	// Performance rises with LFB count and approaches DRAM parity at
	// the paper's 20x4=80-entry rule.
	if series.YAt(10) > 0.4 {
		t.Errorf("at 10 LFBs normalized %.3f, want low", series.YAt(10))
	}
	if series.YAt(80) < 0.8 {
		t.Errorf("at 80 LFBs normalized %.3f, want near DRAM parity (the 20x rule)", series.YAt(80))
	}
}

func TestAblationChipQueue(t *testing.T) {
	tb := quickSuite().AblationChipQueue()
	stock := tb.FindSeries("1us 8c (PCIe Gen2 x8)")
	fat := tb.FindSeries("1us 8c (4x link bandwidth)")
	// Lifting the queue helps substantially even on the stock link...
	if stock.YAt(160) < 2.5*stock.YAt(14) {
		t.Errorf("stock link: 14->160 gained only %.1fx", stock.YAt(160)/stock.YAt(14))
	}
	// ...but full 8-core scaling additionally needs a fatter link — the
	// paper's memory-interconnect suggestion.
	if fat.YAt(160) < 5*fat.YAt(14) {
		t.Errorf("fat link: 14->160 gained only %.1fx, want scaling restored", fat.YAt(160)/fat.YAt(14))
	}
	if fat.YAt(160) < 1.3*stock.YAt(160) {
		t.Errorf("fat link (%.2f) should clearly beat the PCIe-bound stock link (%.2f) at 160 entries",
			fat.YAt(160), stock.YAt(160))
	}
}

func TestAblationSwitchCost(t *testing.T) {
	tb := quickSuite().AblationSwitchCost()
	series := tb.Series[0]
	fast, slow := series.YAt(30), series.YAt(2000)
	if slow > fast/2 {
		t.Errorf("2us switch (%.3f) should forfeit most of the 30ns benefit (%.3f)", slow, fast)
	}
}

func TestAblationSWQOpts(t *testing.T) {
	tb := quickSuite().AblationSWQOpts()
	series := tb.Series[0]
	full := series.YAt(1)
	for i := 2; i <= 4; i++ {
		if series.YAt(float64(i)) > full*1.02 {
			t.Errorf("variant %d (%.3f) not inferior to the full design (%.3f) (§III-A)",
				i, series.YAt(float64(i)), full)
		}
	}
	// Removing both optimizations must be strictly worse.
	if series.YAt(4) >= full*0.98 {
		t.Errorf("flagless+burstless variant %.3f not strictly inferior to %.3f", series.YAt(4), full)
	}
}

func TestTableI(t *testing.T) {
	txt := TableI()
	for _, want := range []string{"Caching", "Bulk transfer", "Overlapping", "user-mode context switch"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestLatencyLabel(t *testing.T) {
	if latLabel(2*sim.Microsecond) != "2us" {
		t.Errorf("latLabel = %q", latLabel(2*sim.Microsecond))
	}
}
