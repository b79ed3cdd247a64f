package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestExpKernelQueueDwarfsAccess(t *testing.T) {
	s := quickSuite()
	s.Threads = []int{1, 4, 8, 16}
	tb := s.ExpKernelQueue()
	_, kqPeak := tb.FindSeries("kernelq").Peak()
	_, sqPeak := tb.FindSeries("swqueue").Peak()
	_, pfPeak := tb.FindSeries("prefetch").Peak()
	// The paper's ordering: prefetch > swqueue >> kernelq.
	if !(pfPeak > sqPeak && sqPeak > kqPeak) {
		t.Errorf("peaks pf=%.3f sq=%.3f kq=%.3f: ordering violated", pfPeak, sqPeak, kqPeak)
	}
	// "these overheads dwarf the access latency": kernel queues stay
	// in the single-digit percents.
	if kqPeak > 0.10 {
		t.Errorf("kernelq peak %.3f, want dwarfed (<0.10)", kqPeak)
	}
}

func TestKernelQueueCorrectness(t *testing.T) {
	// The mechanism must still compute the right answers, however slow.
	m := workload.NewMemcached(64, 4, 60, workload.DefaultWorkCount)
	r := must(core.RunKernelQueue(platform.Default(), m, 4, false))
	if m.BadValues != 0 || m.Hits != 60 {
		t.Errorf("kernelq corrupted lookups: hits=%d bad=%d", m.Hits, m.BadValues)
	}
	if r.Accesses != 240 {
		t.Errorf("accesses = %d", r.Accesses)
	}
}

func TestExpSMTSmallFactor(t *testing.T) {
	tb := quickSuite().ExpSMT()
	s1 := tb.FindSeries("1us")
	// SMT-2 roughly doubles the 1-context on-demand rate...
	gain := s1.YAt(2) / s1.YAt(1)
	if gain < 1.6 || gain > 2.4 {
		t.Errorf("SMT-2 gain %.2fx, want ~2x", gain)
	}
	// ...but stays far from DRAM parity.
	if s1.YAt(2) > 0.4 {
		t.Errorf("SMT-2 at %.3f of DRAM; the paper says SMT utility is limited (§III-B)", s1.YAt(2))
	}
}

func TestExpWritesShape(t *testing.T) {
	s := quickSuite()
	s.Threads = []int{1, 4, 8, 10}
	tb := s.ExpWrites()
	// Prefetch: posted writes are nearly free — adding 4 writes per
	// iteration costs only a few percent at the 10-thread peak.
	_, pf0 := tb.FindSeries("prefetch +0w").Peak()
	_, pf4 := tb.FindSeries("prefetch +4w").Peak()
	if pf4 < pf0*0.85 {
		t.Errorf("prefetch with 4 writes dropped to %.3f from %.3f; writes should be ~free (§VII)", pf4, pf0)
	}
	// SWQ: each write pays descriptor management, visibly compounding.
	_, sq0 := tb.FindSeries("swqueue +0w").Peak()
	_, sq4 := tb.FindSeries("swqueue +4w").Peak()
	if sq4 > sq0*0.75 {
		t.Errorf("swqueue with 4 writes only dropped to %.3f from %.3f; descriptor costs should bite", sq4, sq0)
	}
}

func TestWritesAreCounted(t *testing.T) {
	cfg := platform.Default()
	wl := workload.NewMicrobenchRW(300, workload.DefaultWorkCount, 1, 2)
	r := must(core.RunPrefetch(cfg, wl, 4, false))
	if r.Diag.Writes != 600 {
		t.Errorf("writes = %d, want 600", r.Diag.Writes)
	}
	if r.Accesses != 300 {
		t.Errorf("reads = %d, want 300", r.Accesses)
	}
	r2 := must(core.RunSWQueue(cfg, wl, 4, false))
	if r2.Diag.Writes != 600 {
		t.Errorf("swq writes = %d, want 600", r2.Diag.Writes)
	}
}

func TestExpMemBusScaling(t *testing.T) {
	s := quickSuite()
	tb := s.ExpMemBus()
	for _, lat := range []string{"1us", "4us"} {
		tuned := tb.FindSeries(lat + " membus+rule")
		stock := tb.FindSeries(lat + " stock pcie")
		// The proposed system reaches multicore near-parity x cores.
		if tuned.YAt(8) < 6.0 {
			t.Errorf("%s membus 8-core = %.2f, want near-linear (>6x)", lat, tuned.YAt(8))
		}
		// Stock hardware is far behind at 8 cores.
		if stock.YAt(8) > tuned.YAt(8)/2 {
			t.Errorf("%s stock (%.2f) too close to tuned (%.2f)", lat, stock.YAt(8), tuned.YAt(8))
		}
		// Single-core tuned is near DRAM parity.
		if tuned.YAt(1) < 0.85 {
			t.Errorf("%s membus single-core = %.3f, want ~1", lat, tuned.YAt(1))
		}
	}
}

func TestExpTailLatency(t *testing.T) {
	s := quickSuite()
	s.Threads = []int{4, 10, 16}
	tb := s.ExpTailLatency()
	_, pfFixed := tb.FindSeries("prefetch fixed").Peak()
	_, pfTail := tb.FindSeries("prefetch 1%-tail").Peak()
	// A 1% 10x tail adds 9% mean latency but hurts round-robin far
	// more: the core blocks on the straggler's turn.
	if pfTail > pfFixed*0.95 {
		t.Errorf("prefetch tail peak %.3f vs fixed %.3f: head-of-line blocking missing", pfTail, pfFixed)
	}
	_, sqFixed := tb.FindSeries("swqueue fixed").Peak()
	_, sqTail := tb.FindSeries("swqueue 1%-tail").Peak()
	// Completion-ordered FIFO degrades less (relatively).
	pfDrop := 1 - pfTail/pfFixed
	sqDrop := 1 - sqTail/sqFixed
	if sqDrop > pfDrop {
		t.Errorf("swq degraded more (%.3f) than prefetch (%.3f); FIFO should absorb stragglers", sqDrop, pfDrop)
	}
	// The percentile note is recorded.
	found := false
	for _, n := range tb.Notes {
		if strings.Contains(n, "P99") {
			found = true
		}
	}
	if !found {
		t.Error("missing latency percentile note")
	}
}

func TestAccessLatencyPercentiles(t *testing.T) {
	cfg := platform.Default()
	wl := workload.NewMicrobench(500, workload.DefaultWorkCount, 1)
	r := must(core.RunPrefetch(cfg, wl, 10, false))
	// At 10 threads a 1us device: observed latency ~= 1us (the demand
	// load waits out the residual).
	if r.Diag.AccessP50Ns < 900 || r.Diag.AccessP50Ns > 1200 {
		t.Errorf("P50 = %.0fns, want ~1000ns", r.Diag.AccessP50Ns)
	}
	if r.Diag.AccessP99Ns < r.Diag.AccessP50Ns {
		t.Errorf("P99 %.0f < P50 %.0f", r.Diag.AccessP99Ns, r.Diag.AccessP50Ns)
	}

	// With the tail enabled, P99 shows the outliers.
	cfg.DeviceLatencyTailProb = 0.02
	base := must(core.RunPrefetch(cfg, wl, 10, false))
	if base.Diag.AccessP99Ns < 5000 {
		t.Errorf("tail P99 = %.0fns, want outliers near 10us", base.Diag.AccessP99Ns)
	}
}

func TestExpLocalityShape(t *testing.T) {
	s := quickSuite()
	s.AppLookups = 300
	tb := s.ExpLocality()
	pf := tb.FindSeries("prefetch")
	sq := tb.FindSeries("swqueue")
	hits := tb.FindSeries("prefetch cache hit rate")
	// Prefetch improves monotonically as the footprint shrinks into the
	// cache; SWQ is indifferent to locality (§V-C).
	if !(pf.YAt(8) > pf.YAt(64) && pf.YAt(64) > pf.YAt(512)) {
		t.Errorf("prefetch not monotone in locality: %v", pf.Y)
	}
	if hits.YAt(8) < 0.6 || hits.YAt(512) > 0.2 {
		t.Errorf("hit rates implausible: %v", hits.Y)
	}
	spread := sq.YAt(8) - sq.YAt(512)
	if spread > 0.05 || spread < -0.05 {
		t.Errorf("SWQ varied %.3f with locality; it has no hardware caching", spread)
	}
}

func TestCacheHitsSkipDevice(t *testing.T) {
	cfg := platform.Default()
	cfg.DeviceCacheLines = 1 << 14 // big enough to hold the whole filter
	bloom := workload.NewBloom(1<<15, 4, 128, 600, workload.DefaultWorkCount)
	r := must(core.RunPrefetch(cfg, bloom, 4, false))
	// After compulsory misses, everything hits: accesses (device reads)
	// far below 600 lookups x 4 probes.
	if r.Accesses >= 600*4/2 {
		t.Errorf("device accesses = %d of %d probes; cache not absorbing", r.Accesses, 600*4)
	}
	if r.Diag.CacheHitRate < 0.5 {
		t.Errorf("hit rate %.3f, want high", r.Diag.CacheHitRate)
	}
	// Results stay correct when served from cache.
	if bloom.Positives != bloom.ReferencePositives() {
		t.Errorf("cached positives %d != reference %d", bloom.Positives, bloom.ReferencePositives())
	}
}

func TestWriteInvalidatesCaches(t *testing.T) {
	// A device write must invalidate the line in every core's cache so
	// later reads fetch fresh data (the §V-C coherence argument).
	cfg := platform.Default()
	cfg.DeviceCacheLines = 64
	// Reads and writes to the same address region: a microbench variant
	// that re-reads lines it wrote would need data plumbing; here we
	// check the mechanics via the RW microbench's disjoint streams plus
	// diagnostics — writes must not inflate the hit rate.
	wl := workload.NewMicrobenchRW(300, workload.DefaultWorkCount, 1, 1)
	r := must(core.RunPrefetch(cfg, wl, 4, false))
	if r.Diag.CacheHits != 0 {
		t.Errorf("fresh-line run recorded %d cache hits", r.Diag.CacheHits)
	}
	if r.Diag.Writes != 300 {
		t.Errorf("writes = %d", r.Diag.Writes)
	}
}

func TestSMTDeterministicAndCounted(t *testing.T) {
	cfg := platform.Default()
	wl := workload.NewMicrobench(400, workload.DefaultWorkCount, 1)
	a := must(core.RunSMT(cfg, wl))
	b := must(core.RunSMT(cfg, wl))
	if a.ElapsedSeconds != b.ElapsedSeconds {
		t.Error("SMT runs nondeterministic")
	}
	if a.Accesses != 400 {
		t.Errorf("accesses = %d", a.Accesses)
	}
	if !strings.Contains(a.Label, "smt") {
		t.Errorf("label = %q", a.Label)
	}
}

// TestExtensionPlanRunsAsCells: with an executor attached, every
// extension and fault simulation is a submitted cell, so identical
// cells are shared (ext-tail's fixed-latency cells are ext-kernelq's)
// and every series resolve fills carries its run's flight-recorder
// series and attribution summary, as the paper figures' series do.
func TestExtensionPlanRunsAsCells(t *testing.T) {
	s := parSuite()
	s.Base.MetricsWindow = 10 * sim.Microsecond
	s.Base.Attribution = true
	s.Exec = NewExec(2)
	defer s.Exec.Close()
	tables := RunPlan(s.ExtensionPlan(), nil)
	if es := s.Exec.Stats(); es.Cells == 0 || es.Dedup == 0 {
		t.Errorf("executor stats %+v: want submitted and deduplicated cells", es)
	}
	checked := 0
	for _, tb := range tables {
		if !strings.HasPrefix(tb.ID, "ext-") {
			continue
		}
		checked++
		for _, series := range tb.Series {
			if series.Label == "prefetch cache hit rate" {
				continue // derived from the prefetch cells, not resolved itself
			}
			for i := range series.X {
				if i >= len(series.Metrics) || series.Metrics[i] == nil {
					t.Errorf("%s/%s point %d carries no metrics", tb.ID, series.Label, i)
				}
				if i >= len(series.Attrib) || series.Attrib[i] == nil {
					t.Errorf("%s/%s point %d carries no attribution", tb.ID, series.Label, i)
				}
			}
		}
	}
	if checked != 8 {
		t.Errorf("checked %d ext tables, want 8", checked)
	}
}
