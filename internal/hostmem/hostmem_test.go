package hostmem

import (
	"testing"
	"testing/quick"

	"repro/internal/observe"
	"repro/internal/sim"
)

func TestRequestQueuePushPop(t *testing.T) {
	q := NewRequestQueue()
	id0 := q.Push(0x1000, 0xA000, 5*sim.Nanosecond, observe.Access{})
	id1 := q.Push(0x2000, 0xB000, 6*sim.Nanosecond, observe.Access{})
	if id0 != 0 || id1 != 1 {
		t.Errorf("ids = %d,%d, want 0,1", id0, id1)
	}
	if q.Len() != 2 || q.Submitted() != 2 {
		t.Errorf("len=%d submitted=%d", q.Len(), q.Submitted())
	}
	burst := q.PopBurst(8)
	if len(burst) != 2 {
		t.Fatalf("burst len %d, want 2", len(burst))
	}
	if burst[0].Addr != 0x1000 || burst[0].Target != 0xA000 || burst[0].Submitted != 5*sim.Nanosecond {
		t.Errorf("burst[0] = %+v", burst[0])
	}
	if burst[1].ID != 1 {
		t.Errorf("burst[1].ID = %d, want 1", burst[1].ID)
	}
	if q.Len() != 0 {
		t.Errorf("len after pop = %d, want 0", q.Len())
	}
}

func TestPopBurstHonorsMax(t *testing.T) {
	q := NewRequestQueue()
	for i := 0; i < 20; i++ {
		q.Push(uint64(i), 0, 0, observe.Access{})
	}
	b := q.PopBurst(8)
	if len(b) != 8 || b[0].Addr != 0 || b[7].Addr != 7 {
		t.Errorf("first burst = %d entries starting %d", len(b), b[0].Addr)
	}
	b = q.PopBurst(8)
	if len(b) != 8 || b[0].Addr != 8 {
		t.Errorf("second burst starts at %d, want 8 (FIFO)", b[0].Addr)
	}
	if q.MaxDepth() != 20 {
		t.Errorf("max depth %d, want 20", q.MaxDepth())
	}
}

func TestPopBurstEmpty(t *testing.T) {
	q := NewRequestQueue()
	if b := q.PopBurst(8); b != nil {
		t.Errorf("empty pop = %v, want nil", b)
	}
}

func TestDoorbellFlagProtocol(t *testing.T) {
	q := NewRequestQueue()
	// The very first request always needs a doorbell.
	if !q.DoorbellRequested() {
		t.Fatal("new queue must request a doorbell")
	}
	q.ClearDoorbellRequested()
	if q.DoorbellRequested() {
		t.Error("flag still set after clear")
	}
	q.SetDoorbellRequested()
	if !q.DoorbellRequested() {
		t.Error("flag not set after device set it")
	}
}

func TestCompletionQueue(t *testing.T) {
	q := NewCompletionQueue()
	if got := q.Drain(); got != nil {
		t.Errorf("empty drain = %v", got)
	}
	q.Post(7, 10*sim.Nanosecond)
	q.Post(8, 11*sim.Nanosecond)
	if q.Len() != 2 || q.Posted() != 2 || q.MaxDepth() != 2 {
		t.Errorf("len=%d posted=%d max=%d", q.Len(), q.Posted(), q.MaxDepth())
	}
	got := q.Drain()
	if len(got) != 2 || got[0].ID != 7 || got[1].ID != 8 || got[0].Posted != 10*sim.Nanosecond {
		t.Errorf("drained = %+v", got)
	}
	if q.Len() != 0 {
		t.Errorf("len after drain = %d", q.Len())
	}
}

// TestDrainSurvivesPostsWhileDelivering: completions the device posts
// while the host is still delivering a drained batch land in the other
// buffer, so the batch stays intact until the next Drain; buffers are
// reused rather than reallocated.
func TestDrainSurvivesPostsWhileDelivering(t *testing.T) {
	q := NewCompletionQueue()
	for round := uint64(0); round < 4; round++ {
		base := round * 10
		q.Post(base, 0)
		q.Post(base+1, 0)
		got := q.Drain()
		for i := range got {
			q.Post(base+5+uint64(i), 0) // device posts mid-delivery
			if got[i].ID != base+uint64(i) {
				t.Fatalf("round %d: drained[%d].ID = %d after a mid-delivery Post, want %d",
					round, i, got[i].ID, base+uint64(i))
			}
		}
		if len(got) != 2 {
			t.Fatalf("round %d: drained %d entries, want 2", round, len(got))
		}
		next := q.Drain()
		if len(next) != 2 || next[0].ID != base+5 || next[1].ID != base+6 {
			t.Fatalf("round %d: next drain = %+v, want the two mid-delivery posts", round, next)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		q.Post(1, 0)
		q.Drain()
	}); n != 0 {
		t.Errorf("Post+Drain allocates %.0f times per call, want 0 once warm", n)
	}
}

func TestPopBurstReusesBuffer(t *testing.T) {
	q := NewRequestQueue()
	for i := 0; i < 16; i++ {
		q.Push(uint64(i), 0, 0, observe.Access{})
	}
	q.PopBurst(8)
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			q.Push(uint64(i), 0, 0, observe.Access{})
		}
		q.PopBurst(8)
	}); n != 0 {
		t.Errorf("PopBurst allocates %.0f times per burst, want 0 once warm", n)
	}
}

// Property: any sequence of pushes followed by burst pops preserves FIFO
// order and loses nothing.
func TestRequestQueueFIFOProperty(t *testing.T) {
	f := func(pushes []uint8, burst uint8) bool {
		if burst == 0 {
			burst = 1
		}
		q := NewRequestQueue()
		for i := range pushes {
			q.Push(uint64(i), 0, 0, observe.Access{})
		}
		var got []uint64
		for q.Len() > 0 {
			for _, d := range q.PopBurst(int(burst)) {
				got = append(got, d.Addr)
			}
		}
		if len(got) != len(pushes) {
			return false
		}
		for i := range got {
			if got[i] != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
