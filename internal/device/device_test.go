package device

import (
	"testing"

	"repro/internal/hostmem"
	"repro/internal/mem"
	"repro/internal/observe"
	"repro/internal/pcie"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/sim"
)

type rig struct {
	eng  *sim.Engine
	cfg  platform.Config
	link *pcie.Link
	dram *mem.DRAM
	dev  *Device
}

func newRig(cfg platform.Config) *rig {
	eng := sim.NewEngine()
	link := pcie.NewLink(eng, cfg)
	dram := mem.New(eng, cfg.DRAMLatency, cfg.DRAMMaxOutstanding)
	dev := New(eng, cfg, link, dram, replay.ZeroBacking{})
	return &rig{eng: eng, cfg: cfg, link: link, dram: dram, dev: dev}
}

func TestMMIOReadExactLatency(t *testing.T) {
	for _, lat := range []sim.Time{1 * sim.Microsecond, 2 * sim.Microsecond, 4 * sim.Microsecond} {
		r := newRig(platform.Default().WithLatency(lat))
		if err := r.dev.LoadRecording(0, replay.Synthetic(0, 16), 0); err != nil {
			t.Fatal(err)
		}
		var done sim.Time
		r.dev.MMIORead(0, 0, observe.Access{}, func(data []byte) {
			done = r.eng.Now()
			if len(data) != platform.CacheLineBytes {
				t.Errorf("response size %d", len(data))
			}
		})
		r.eng.Run()
		// The delay module targets exactly the configured latency,
		// inclusive of the PCIe round trip (§IV-A).
		if done != lat {
			t.Errorf("lat=%v: response at %v, want exactly %v", lat, done, lat)
		}
	}
}

func TestMMIOReadReplayVsOnDemand(t *testing.T) {
	r := newRig(platform.Default())
	if err := r.dev.LoadRecording(0, replay.Synthetic(0, 4), 0); err != nil {
		t.Fatal(err)
	}
	responses := 0
	// Matched replay accesses.
	for i := 0; i < 4; i++ {
		r.dev.MMIORead(0, uint64(i)*64, observe.Access{}, func([]byte) { responses++ })
		r.eng.Run()
	}
	// Spurious wrong-path access: served by the on-demand module.
	r.dev.MMIORead(0, 0xBAD0000, observe.Access{}, func([]byte) { responses++ })
	r.eng.Run()
	if responses != 5 {
		t.Fatalf("responses = %d, want 5", responses)
	}
	if r.dev.ReplayServed() != 4 || r.dev.OnDemandServed() != 1 {
		t.Errorf("replay=%d ondemand=%d, want 4,1", r.dev.ReplayServed(), r.dev.OnDemandServed())
	}
}

func TestMMIOReadIdealModeWithoutRecording(t *testing.T) {
	r := newRig(platform.Default())
	var done sim.Time
	r.dev.MMIORead(0, 0x40, observe.Access{}, func([]byte) { done = r.eng.Now() })
	r.eng.Run()
	// Ideal backing-only mode serves at replay-path timing.
	if done != r.cfg.DeviceLatency {
		t.Errorf("ideal-mode response at %v, want %v", done, r.cfg.DeviceLatency)
	}
	if r.dev.DirectServed() != 1 || r.dev.OnDemandServed() != 0 {
		t.Errorf("direct=%d onDemand=%d, want 1,0", r.dev.DirectServed(), r.dev.OnDemandServed())
	}
}

func TestOnDemandDetourCannotRespondEarly(t *testing.T) {
	// With device latency at the RTT floor, a replay miss takes the
	// on-demand module's dataset-DRAM detour, pushing the response past
	// the configured latency rather than violating causality.
	cfg := platform.Default().WithLatency(2 * platform.Default().PCIePropagation)
	r := newRig(cfg)
	if err := r.dev.LoadRecording(0, replay.Synthetic(0, 4), 0); err != nil {
		t.Fatal(err)
	}
	var done sim.Time
	r.dev.MMIORead(0, 0xBAD0000, observe.Access{}, func([]byte) { done = r.eng.Now() }) // spurious
	r.eng.Run()
	if done <= cfg.DeviceLatency {
		t.Errorf("response at %v not delayed past %v by on-demand detour", done, cfg.DeviceLatency)
	}
	if r.dev.OnDemandServed() != 1 {
		t.Errorf("onDemandServed = %d, want 1", r.dev.OnDemandServed())
	}
}

func TestLoadRecordingCapacity(t *testing.T) {
	r := newRig(platform.Default())
	r.dev.loadedBytes = OnBoardDRAMBytes - 1 // nearly full on-board DRAM
	if err := r.dev.LoadRecording(0, replay.Synthetic(0, 8), 0); err == nil {
		t.Error("recording exceeding on-board DRAM capacity accepted")
	}
	r.dev.loadedBytes = 0
	if err := r.dev.LoadRecording(0, replay.Synthetic(0, 8), 0); err != nil {
		t.Errorf("small recording rejected: %v", err)
	}
	if r.dev.Module(0) == nil {
		t.Error("module not installed")
	}
	if r.dev.Module(3) != nil {
		t.Error("module for unknown core")
	}
}

// TestKeepRecordingCapacity: a run that records its own sequence is
// held to the same on-board capacity as a loaded recording, with the
// same error, and gets no replay module.
func TestKeepRecordingCapacity(t *testing.T) {
	capture := func(loaded int64) (*rig, error) {
		r := newRig(platform.Default())
		r.dev.loadedBytes = loaded
		r.dev.EnableRecording(0)
		for i := 0; i < 8; i++ {
			r.dev.MMIORead(0, uint64(i)*64, observe.Access{}, func([]byte) {})
		}
		r.eng.Run()
		return r, r.dev.KeepRecording(0)
	}
	r, err := capture(OnBoardDRAMBytes - 1)
	want := r.dev.LoadRecording(0, replay.Synthetic(0, 8), 0)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("KeepRecording over capacity: %v, want LoadRecording's %v", err, want)
	}
	r, err = capture(0)
	if err != nil {
		t.Fatalf("small recording rejected: %v", err)
	}
	if r.dev.loadedBytes != replay.Synthetic(0, 8).Bytes() {
		t.Errorf("loaded %d bytes, want the recording's %d", r.dev.loadedBytes, replay.Synthetic(0, 8).Bytes())
	}
	if r.dev.Module(0) != nil || r.dev.recorders[0] != nil {
		t.Error("KeepRecording left a replay module or a live recorder")
	}
	if r.dev.ReplayServed() != 8 {
		t.Errorf("replay served %d, want all 8 captured reads", r.dev.ReplayServed())
	}
}

// TestEnableCountingKeepsOnlyTheSize: a counting recorder serves every
// read on the replay fast path like a storing one, stores no sequence,
// and KeepRecording charges the same bytes.
func TestEnableCountingKeepsOnlyTheSize(t *testing.T) {
	r := newRig(platform.Default())
	r.dev.EnableCounting(0)
	for i := 0; i < 8; i++ {
		r.dev.MMIORead(0, uint64(i)*64, observe.Access{}, func([]byte) {})
	}
	r.eng.Run()
	if r.dev.recorders[0].Recording() != nil {
		t.Error("counting recorder stored a sequence")
	}
	if err := r.dev.KeepRecording(0); err != nil {
		t.Fatal(err)
	}
	if want := replay.Synthetic(0, 8).Bytes(); r.dev.loadedBytes != want || r.dev.ReplayServed() != 8 {
		t.Errorf("loaded %d bytes, replay served %d; want %d bytes, 8 reads", r.dev.loadedBytes, r.dev.ReplayServed(), want)
	}
}

func TestMMIOMulticoreOffsets(t *testing.T) {
	r := newRig(platform.Default())
	rec := replay.Synthetic(0, 8)
	for core := 0; core < 2; core++ {
		offset := uint64(core) << 32
		if err := r.dev.LoadRecording(core, rec, offset); err != nil {
			t.Fatal(err)
		}
	}
	// Each core's requests match through its own offset module. Note
	// both modules share one recording, as in the paper.
	got := 0
	r.dev.MMIORead(0, 0, observe.Access{}, func([]byte) { got++ })
	r.dev.MMIORead(1, 1<<32, observe.Access{}, func([]byte) { got++ })
	r.eng.Run()
	if got != 2 || r.dev.ReplayServed() != 2 {
		t.Errorf("served %d replay=%d, want both via replay", got, r.dev.ReplayServed())
	}
}

// --- software-managed queue endpoint ---

type swqRig struct {
	*rig
	rq *hostmem.RequestQueue
	cq *hostmem.CompletionQueue
	ep *SWQEndpoint
}

func newSWQRig(t *testing.T, cfg platform.Config, recLen int) *swqRig {
	t.Helper()
	r := newRig(cfg)
	if recLen > 0 {
		if err := r.dev.LoadRecording(0, replay.Synthetic(0, recLen), 0); err != nil {
			t.Fatal(err)
		}
	}
	rq := hostmem.NewRequestQueue()
	cq := hostmem.NewCompletionQueue()
	ep := r.dev.NewSWQEndpoint(0, rq, cq)
	return &swqRig{rig: r, rq: rq, cq: cq, ep: ep}
}

func TestSWQSingleRequest(t *testing.T) {
	s := newSWQRig(t, platform.Default(), 8)
	id := s.rq.Push(0, 0xA000, 0, observe.Access{})
	s.rq.ClearDoorbellRequested()
	s.ep.Doorbell()
	s.eng.RunUntil(50 * sim.Microsecond)

	if s.cq.Len() != 1 {
		t.Fatalf("completions = %d, want 1", s.cq.Len())
	}
	compl := s.cq.Drain()[0]
	if compl.ID != id {
		t.Errorf("completion ID %d, want %d", compl.ID, id)
	}
	// End-to-end SWQ latency exceeds the raw device latency: descriptor
	// fetch (PCIe RTT + host DRAM) + internal delay + response write.
	if compl.Posted <= s.cfg.DeviceLatency {
		t.Errorf("completion at %v, should exceed device latency %v", compl.Posted, s.cfg.DeviceLatency)
	}
	if compl.Posted > s.cfg.DeviceLatency+3*sim.Microsecond {
		t.Errorf("completion at %v, implausibly slow", compl.Posted)
	}
	if data := s.ep.Data(id); len(data) != platform.CacheLineBytes {
		t.Errorf("data len %d", len(data))
	}
}

func TestSWQDataPrecedesCompletion(t *testing.T) {
	s := newSWQRig(t, platform.Default(), 8)
	id := s.rq.Push(0, 0xA000, 0, observe.Access{})
	s.rq.ClearDoorbellRequested()
	s.ep.Doorbell()

	sawDataAtCompletion := false
	gate := s.ep.CompletionGate()
	gate.OnFire(func() {
		// The protocol guarantees response data is host-visible before
		// its completion entry (§IV-A).
		sawDataAtCompletion = len(s.ep.Data(id)) == platform.CacheLineBytes
	})
	s.eng.RunUntil(50 * sim.Microsecond)
	if !sawDataAtCompletion {
		t.Error("completion posted before response data landed")
	}
}

func TestSWQBurstDrainsManyDescriptors(t *testing.T) {
	s := newSWQRig(t, platform.Default(), 64)
	for i := 0; i < 20; i++ {
		s.rq.Push(uint64(i)*64, 0, 0, observe.Access{})
	}
	s.rq.ClearDoorbellRequested()
	s.ep.Doorbell()
	s.eng.RunUntil(100 * sim.Microsecond)

	if s.cq.Posted() != 20 {
		t.Fatalf("completions = %d, want 20", s.cq.Posted())
	}
	// 20 descriptors in bursts of 8: at least 3 non-empty bursts, plus
	// empty/final ones; strictly fewer bursts than descriptors shows
	// amortization.
	if s.ep.FetchBursts() < 3 || s.ep.FetchBursts() >= 20 {
		t.Errorf("fetch bursts = %d, want amortized (3..19)", s.ep.FetchBursts())
	}
}

func TestSWQDoorbellFlagProtocol(t *testing.T) {
	s := newSWQRig(t, platform.Default(), 64)
	s.rq.Push(0, 0, 0, observe.Access{})
	s.rq.ClearDoorbellRequested()
	s.ep.Doorbell()
	s.eng.RunUntil(100 * sim.Microsecond)

	// After draining, the fetcher parked and set the doorbell-request
	// flag, telling the host its next submission must ring the doorbell.
	if !s.rq.DoorbellRequested() {
		t.Fatal("doorbell-request flag not set after fetcher went idle")
	}
	if s.ep.EmptyBursts() == 0 {
		t.Error("fetcher never observed an empty burst")
	}

	// A second round: submission + doorbell restarts the fetcher.
	s.rq.Push(64, 0, 0, observe.Access{})
	s.rq.ClearDoorbellRequested()
	s.ep.Doorbell()
	s.eng.RunUntil(200 * sim.Microsecond)
	if s.cq.Posted() != 2 {
		t.Errorf("completions = %d, want 2", s.cq.Posted())
	}
	if s.ep.DoorbellHits() != 2 {
		t.Errorf("doorbell hits = %d, want 2", s.ep.DoorbellHits())
	}
}

func TestSWQSubmitWhileRunningNeedsNoDoorbell(t *testing.T) {
	s := newSWQRig(t, platform.Default(), 64)
	s.rq.Push(0, 0, 0, observe.Access{})
	s.rq.ClearDoorbellRequested()
	s.ep.Doorbell()
	// While the fetcher is busy, push more requests without doorbells;
	// the continuous burst loop must pick them up (§III-A).
	s.eng.At(2*sim.Microsecond, func() {
		for i := 1; i <= 5; i++ {
			s.rq.Push(uint64(i)*64, 0, 0, observe.Access{})
		}
	})
	s.eng.RunUntil(100 * sim.Microsecond)
	if s.cq.Posted() != 6 {
		t.Errorf("completions = %d, want 6 without extra doorbells", s.cq.Posted())
	}
	if s.ep.DoorbellHits() != 1 {
		t.Errorf("doorbells = %d, want 1", s.ep.DoorbellHits())
	}
}

func TestSWQCompletionGateLostWakeupFree(t *testing.T) {
	s := newSWQRig(t, platform.Default(), 8)
	var woke sim.Time
	s.eng.Go("host-poller", func(p *sim.Proc) {
		gate := s.ep.CompletionGate()
		if s.cq.Len() == 0 {
			p.Wait(gate)
		}
		woke = p.Now()
	})
	s.rq.Push(0, 0, 0, observe.Access{})
	s.rq.ClearDoorbellRequested()
	s.ep.Doorbell()
	s.eng.RunUntil(50 * sim.Microsecond)
	if woke == 0 {
		t.Fatal("poller never woke")
	}
	if s.cq.Len() != 1 {
		t.Errorf("cq len = %d", s.cq.Len())
	}
}

// TestInternalDelayForMatchesConfig pins the device's precomputed round
// trip: its per-request internal delay equals cfg.InternalDelayFor for
// latencies around and far past the round trip, including ones below
// it, which clamp to zero.
func TestInternalDelayForMatchesConfig(t *testing.T) {
	for _, cfg := range []platform.Config{platform.Default(), platform.Default().AsMemBus()} {
		r := newRig(cfg)
		rtt := cfg.MMIORoundTrip()
		lats := []sim.Time{-sim.Microsecond, 0, 1, rtt / 2, rtt - 1, rtt, rtt + 1, sim.Microsecond, 4 * sim.Microsecond, 3*cfg.DeviceLatency + 7}
		for _, lat := range lats {
			if got, want := r.dev.internalDelayFor(lat), cfg.InternalDelayFor(lat); got != want {
				t.Errorf("round trip %v: internalDelayFor(%v) = %v, want %v", rtt, lat, got, want)
			}
		}
		if got := r.dev.internalDelayFor(rtt - 1); got != 0 {
			t.Errorf("latency below the round trip gave delay %v, want 0", got)
		}
	}
}
