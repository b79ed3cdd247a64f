package device

import (
	"testing"

	"repro/internal/observe"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/sim"
)

func TestMMIOWritePosted(t *testing.T) {
	r := newRig(platform.Default())
	var posted sim.Time
	r.dev.MMIOWrite(0, 0x40, func() { posted = r.eng.Now() })
	r.eng.Run()
	// Posted write: one downstream cache-line TLP, no device response —
	// far faster than the device latency.
	want := r.cfg.TLPTime(platform.CacheLineBytes) + r.cfg.PCIePropagation
	if posted != want {
		t.Errorf("write posted at %v, want %v", posted, want)
	}
	if r.dev.WritesServed() != 1 {
		t.Errorf("writesServed = %d", r.dev.WritesServed())
	}
	// Writes consume downstream, not upstream, bandwidth.
	if r.link.Downstream().UsefulBytes != 64 || r.link.Upstream().TotalBytes != 0 {
		t.Errorf("write traffic misrouted: down=%+v up=%+v", r.link.Downstream(), r.link.Upstream())
	}
}

func TestSWQWriteDescriptor(t *testing.T) {
	s := newSWQRig(t, platform.Default(), 8)
	s.rq.PushWrite(0x40, 0xA000, 0)
	s.rq.ClearDoorbellRequested()
	s.ep.Doorbell()
	s.eng.RunUntil(50 * sim.Microsecond)

	// The write generates a completion (host discards it) and counts as
	// served.
	if s.cq.Posted() != 1 {
		t.Fatalf("completions = %d, want 1", s.cq.Posted())
	}
	if s.dev.WritesServed() != 1 {
		t.Errorf("writesServed = %d", s.dev.WritesServed())
	}
	// The device DMA-read the source line from host memory: 64 useful
	// bytes moved downstream.
	if s.link.Downstream().UsefulBytes < 64 {
		t.Errorf("downstream useful bytes = %d, want the write data", s.link.Downstream().UsefulBytes)
	}
}

func TestSWQMixedReadWriteBurst(t *testing.T) {
	s := newSWQRig(t, platform.Default(), 16)
	id0 := s.rq.Push(0, 0xA000, 0, observe.Access{})
	s.rq.PushWrite(0x40, 0xB000, 0)
	id2 := s.rq.Push(64, 0xC000, 0, observe.Access{})
	s.rq.ClearDoorbellRequested()
	s.ep.Doorbell()
	s.eng.RunUntil(50 * sim.Microsecond)

	if s.cq.Posted() != 3 {
		t.Fatalf("completions = %d, want 3", s.cq.Posted())
	}
	// Read data is retrievable; the write produced none.
	if len(s.ep.Data(id0)) != platform.CacheLineBytes || len(s.ep.Data(id2)) != platform.CacheLineBytes {
		t.Error("read data missing after mixed burst")
	}
}

func TestEffectiveLatencyTailDeterministic(t *testing.T) {
	cfg := platform.Default()
	cfg.DeviceLatencyTailProb = 0.1
	draw := func() []sim.Time {
		r := newRig(cfg)
		out := make([]sim.Time, 200)
		for i := range out {
			out[i] = r.dev.effectiveLatency()
		}
		return out
	}
	a, b := draw(), draw()
	slow := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("latency draws nondeterministic")
		}
		switch a[i] {
		case cfg.DeviceLatency:
		case sim.Time(float64(cfg.DeviceLatency) * cfg.DeviceLatencyTailFactor):
			slow++
		default:
			t.Fatalf("unexpected latency %v", a[i])
		}
	}
	// ~10% of 200 draws; allow wide slack for the deterministic hash.
	if slow < 8 || slow > 36 {
		t.Errorf("slow draws = %d of 200, want ~20", slow)
	}
}

func TestEffectiveLatencyFixedWithoutTail(t *testing.T) {
	r := newRig(platform.Default())
	for i := 0; i < 50; i++ {
		if got := r.dev.effectiveLatency(); got != r.cfg.DeviceLatency {
			t.Fatalf("draw %d = %v without tail", i, got)
		}
	}
}

func TestMMIOReadTailLatency(t *testing.T) {
	cfg := platform.Default()
	cfg.DeviceLatencyTailProb = 1.0 // every access is an outlier
	r := newRig(cfg)
	if err := r.dev.LoadRecording(0, replay.Synthetic(0, 4), 0); err != nil {
		t.Fatal(err)
	}
	var done sim.Time
	r.dev.MMIORead(0, 0, observe.Access{}, func([]byte) { done = r.eng.Now() })
	r.eng.Run()
	want := sim.Time(float64(cfg.DeviceLatency) * cfg.DeviceLatencyTailFactor)
	if done != want {
		t.Errorf("tail response at %v, want %v", done, want)
	}
}
