package pcie

import (
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
)

func testLink(t *testing.T) (*sim.Engine, *Link, platform.Config) {
	t.Helper()
	cfg := platform.Default()
	eng := sim.NewEngine()
	return eng, NewLink(eng, cfg), cfg
}

func TestSendDownDelivery(t *testing.T) {
	eng, l, cfg := testLink(t)
	var arrived sim.Time
	l.SendDown(0, 0, func() { arrived = eng.Now() })
	eng.Run()
	// Header-only packet: 24B at 4GB/s = 6ns transmission + 400ns prop.
	want := cfg.TLPTime(0) + cfg.PCIePropagation
	if arrived != want {
		t.Errorf("arrived at %v, want %v", arrived, want)
	}
}

func TestSendUpCacheLine(t *testing.T) {
	eng, l, cfg := testLink(t)
	var arrived sim.Time
	l.SendUp(64, 64, func() { arrived = eng.Now() })
	eng.Run()
	want := cfg.TLPTime(64) + cfg.PCIePropagation // 22ns + 400ns
	if arrived != want {
		t.Errorf("arrived at %v, want %v", arrived, want)
	}
	up := l.Upstream()
	if up.TotalBytes != 88 || up.UsefulBytes != 64 || up.Packets != 1 {
		t.Errorf("upstream stats = %+v", up)
	}
	if f := up.UsefulFraction(); f < 0.72 || f > 0.73 {
		t.Errorf("useful fraction %.3f, want 64/88", f)
	}
}

func TestLinkSerialization(t *testing.T) {
	eng, l, cfg := testLink(t)
	var first, second sim.Time
	l.SendUp(64, 64, func() { first = eng.Now() })
	l.SendUp(64, 64, func() { second = eng.Now() })
	eng.Run()
	// Second packet transmits only after the first: arrivals 22ns apart.
	if second-first != cfg.TLPTime(64) {
		t.Errorf("arrival gap %v, want %v", second-first, cfg.TLPTime(64))
	}
}

func TestDirectionsAreIndependent(t *testing.T) {
	eng, l, cfg := testLink(t)
	var up, down sim.Time
	l.SendUp(64, 64, func() { up = eng.Now() })
	l.SendDown(64, 64, func() { down = eng.Now() })
	eng.Run()
	// Full duplex: both arrive at the single-packet time.
	want := cfg.TLPTime(64) + cfg.PCIePropagation
	if up != want || down != want {
		t.Errorf("up=%v down=%v, want both %v", up, down, want)
	}
}

func TestSendUpAtDelays(t *testing.T) {
	eng, l, cfg := testLink(t)
	var arrived sim.Time
	l.SendUpAt(1*sim.Microsecond, 64, 64, func() { arrived = eng.Now() })
	eng.Run()
	want := 1*sim.Microsecond + cfg.TLPTime(64) + cfg.PCIePropagation
	if arrived != want {
		t.Errorf("arrived at %v, want %v", arrived, want)
	}
}

func TestUsefulExceedsPayloadPanics(t *testing.T) {
	_, l, _ := testLink(t)
	defer func() {
		if recover() == nil {
			t.Error("useful > payload did not panic")
		}
	}()
	l.SendUp(10, 11, func() {})
}

func TestBandwidthSaturation(t *testing.T) {
	// Saturate the upstream with back-to-back 64B packets and confirm
	// the achieved useful rate matches 64/88 of the 4 GB/s peak.
	eng, l, cfg := testLink(t)
	n := 1000
	for i := 0; i < n; i++ {
		l.SendUp(64, 64, func() {})
	}
	eng.Run()
	elapsed := eng.Now() - cfg.PCIePropagation // transmission window
	rate := float64(n*64) / elapsed.Seconds()
	wantRate := cfg.PCIeBandwidth * 64.0 / 88.0 // ~2.9 GB/s useful
	if rate < wantRate*0.99 || rate > wantRate*1.01 {
		t.Errorf("useful rate %.3g B/s, want ~%.3g", rate, wantRate)
	}
}

func TestUsefulBandwidthStat(t *testing.T) {
	eng, l, _ := testLink(t)
	l.SendUp(64, 64, func() {})
	eng.Run()
	s := l.Upstream()
	bw := s.UsefulBandwidth(eng.Now())
	if bw <= 0 {
		t.Errorf("useful bandwidth %v, want positive", bw)
	}
	if got := (Stats{}).UsefulBandwidth(0); got != 0 {
		t.Errorf("zero-elapsed bandwidth = %v, want 0", got)
	}
	if got := (Stats{}).UsefulFraction(); got != 0 {
		t.Errorf("idle useful fraction = %v, want 0", got)
	}
}

func TestChipQueueCapacity(t *testing.T) {
	cfg := platform.Default()
	eng := sim.NewEngine()
	q := NewChipQueue(eng, cfg)
	if q.Capacity() != 14 {
		t.Errorf("chip queue capacity %d, paper says 14 (§V-B)", q.Capacity())
	}
}

// TestLinkTLPTableMatchesConfig pins the link's service-time table to
// the function it caches: every payload in the table, and the first one
// past it (the fallback), equals cfg.TLPTime, for the default platform
// and for randomized bandwidths, headers and descriptor bursts.
func TestLinkTLPTableMatchesConfig(t *testing.T) {
	cfgs := []platform.Config{platform.Default()}
	rng := rand.New(rand.NewSource(39))
	for i := 0; i < 200; i++ {
		cfg := platform.Default()
		cfg.PCIeBandwidth = 1e8 + rng.Float64()*3e10
		cfg.PCIeHeaderBytes = rng.Intn(64)
		cfg.FetchBurst = 1 + rng.Intn(64)
		cfg.DescriptorBytes = 1 + rng.Intn(128)
		cfgs = append(cfgs, cfg)
	}
	for _, cfg := range cfgs {
		l := NewLink(sim.NewEngine(), cfg)
		top := max(cfg.FetchBurst*cfg.DescriptorBytes, platform.CacheLineBytes, cfg.CompletionBytes, 8)
		if len(l.tlp) != min(top, maxTLPTable-1)+1 {
			t.Fatalf("table holds %d payloads, want 0..%d", len(l.tlp), top)
		}
		for p := 0; p <= len(l.tlp); p++ {
			if got, want := l.TLPTime(p), cfg.TLPTime(p); got != want {
				t.Fatalf("bandwidth %g header %d: TLPTime(%d) = %v, want %v", cfg.PCIeBandwidth, cfg.PCIeHeaderBytes, p, got, want)
			}
		}
	}
}
