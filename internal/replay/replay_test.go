package replay

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func seqRecording(n int) *Recording {
	r := &Recording{}
	for i := 0; i < n; i++ {
		data := make([]byte, LineSize)
		data[0] = byte(i)
		r.Record(uint64(i)*LineSize, data)
	}
	return r
}

func TestInOrderReplay(t *testing.T) {
	rec := seqRecording(10)
	m := NewModule(rec, 4, 0)
	for i := 0; i < 10; i++ {
		data, ok := m.Lookup(uint64(i) * LineSize)
		if !ok {
			t.Fatalf("lookup %d missed", i)
		}
		if data[0] != byte(i) {
			t.Fatalf("lookup %d returned data %d", i, data[0])
		}
	}
	if !m.Drained() || m.Matches() != 10 || m.Skips() != 0 || m.Misses() != 0 || m.Reordered() != 0 {
		t.Errorf("stats: matches=%d skips=%d misses=%d reordered=%d drained=%v",
			m.Matches(), m.Skips(), m.Misses(), m.Reordered(), m.Drained())
	}
}

func TestReorderedAccessesWithinWindow(t *testing.T) {
	rec := seqRecording(6)
	m := NewModule(rec, 4, 0)
	// Swap accesses 0 and 1, as out-of-order issue would.
	order := []int{1, 0, 2, 3, 5, 4}
	for _, i := range order {
		data, ok := m.Lookup(uint64(i) * LineSize)
		if !ok {
			t.Fatalf("reordered lookup %d missed", i)
		}
		if data[0] != byte(i) {
			t.Fatalf("lookup %d returned data %d", i, data[0])
		}
	}
	if m.Reordered() != 2 { // entries 1 and 5 matched behind the front
		t.Errorf("reordered = %d, want 2", m.Reordered())
	}
	if !m.Drained() {
		t.Error("module not drained")
	}
}

func TestCacheHitSkipsAgeOut(t *testing.T) {
	rec := seqRecording(20)
	m := NewModule(rec, 4, 0)
	// The measured run never requests access 3 (it hit in the cache).
	for i := 0; i < 20; i++ {
		if i == 3 {
			continue
		}
		if _, ok := m.Lookup(uint64(i) * LineSize); !ok {
			t.Fatalf("lookup %d missed", i)
		}
	}
	if m.Skips() != 1 {
		t.Errorf("skips = %d, want 1", m.Skips())
	}
	if m.Remaining() != 0 {
		t.Errorf("remaining = %d, want 0", m.Remaining())
	}
}

func TestSpuriousRequestMisses(t *testing.T) {
	rec := seqRecording(4)
	m := NewModule(rec, 4, 0)
	// A wrong-path access to an address not in the window.
	if _, ok := m.Lookup(0xDEAD0000); ok {
		t.Fatal("spurious request matched")
	}
	if m.Misses() != 1 {
		t.Errorf("misses = %d, want 1", m.Misses())
	}
	// The window is unaffected: the real sequence still replays.
	for i := 0; i < 4; i++ {
		if _, ok := m.Lookup(uint64(i) * LineSize); !ok {
			t.Fatalf("lookup %d missed after spurious request", i)
		}
	}
}

func TestLookupBeyondWindowMisses(t *testing.T) {
	rec := seqRecording(100)
	m := NewModule(rec, 8, 0)
	// Entry 50 is far beyond the 8-deep window at the front.
	if _, ok := m.Lookup(50 * LineSize); ok {
		t.Fatal("matched an entry outside the window")
	}
}

func TestDuplicateAddressesMatchOldestFirst(t *testing.T) {
	// Two recorded accesses to the same address must be consumed
	// oldest-first (age-based lookup).
	rec := &Recording{}
	d1 := bytes.Repeat([]byte{1}, LineSize)
	d2 := bytes.Repeat([]byte{2}, LineSize)
	rec.Record(0x40, d1)
	rec.Record(0x40, d2)
	m := NewModule(rec, 4, 0)
	got1, _ := m.Lookup(0x40)
	got2, _ := m.Lookup(0x40)
	if got1[0] != 1 || got2[0] != 2 {
		t.Errorf("duplicate matches returned %d,%d; want 1,2", got1[0], got2[0])
	}
}

func TestAddressOffsetReuse(t *testing.T) {
	// One recording serves two "cores" at different offsets (§IV-A).
	rec := seqRecording(5)
	m0 := NewModule(rec, 4, 0)
	m1 := NewModule(rec, 4, 1<<30)
	for i := 0; i < 5; i++ {
		if _, ok := m0.Lookup(uint64(i) * LineSize); !ok {
			t.Fatalf("core0 lookup %d missed", i)
		}
		if _, ok := m1.Lookup(1<<30 + uint64(i)*LineSize); !ok {
			t.Fatalf("core1 lookup %d missed", i)
		}
	}
	// Unoffset address misses on the offset module.
	if _, ok := NewModule(rec, 4, 1<<30).Lookup(0); ok {
		t.Error("offset module matched unoffset address")
	}
}

func TestSyntheticRecording(t *testing.T) {
	r := Synthetic(0x1000, 3)
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	if r.Entries[2].Addr != 0x1000+2*LineSize {
		t.Errorf("entry 2 addr = %#x", r.Entries[2].Addr)
	}
	m := NewModule(r, 4, 0)
	data, ok := m.Lookup(0x1000)
	if !ok || len(data) != LineSize {
		t.Fatalf("synthetic lookup failed")
	}
	for _, b := range data {
		if b != 0 {
			t.Fatal("synthetic line not zero-filled")
		}
	}
	if r.Bytes() != 3*(8+LineSize) {
		t.Errorf("Bytes() = %d", r.Bytes())
	}
}

// TestZeroLinesAllocateNothing: ZeroBacking and a match on a nil-data
// entry both hand out the one shared zero line.
func TestZeroLinesAllocateNothing(t *testing.T) {
	var b Backing = ZeroBacking{}
	if n := testing.AllocsPerRun(100, func() { b.ReadLine(0x40) }); n != 0 {
		t.Errorf("ZeroBacking.ReadLine allocates %v objects", n)
	}
	m := NewModule(Synthetic(0, 200), 8, 0)
	next := uint64(0)
	n := testing.AllocsPerRun(100, func() {
		if line, ok := m.Lookup(next * LineSize); !ok || &line[0] != &ZeroLine()[0] {
			t.Fatalf("lookup %d: ok=%v, line is not the shared zero line", next, ok)
		}
		next++
	})
	if n != 0 {
		t.Errorf("Lookup of a nil-data entry allocates %v objects", n)
	}
	for _, c := range ZeroLine() {
		if c != 0 {
			t.Fatal("the shared zero line is not zero")
		}
	}
}

// TestCountingRecorder: without a Recording the recorder serves the
// same lines and reports the same size, storing nothing.
func TestCountingRecorder(t *testing.T) {
	backing := &SliceBacking{Base: 0, Data: bytes.Repeat([]byte{7}, 256)}
	stored, counted := NewRecorder(backing, &Recording{}), NewRecorder(backing, nil)
	for _, addr := range []uint64{0x40, 0, 0x40, 0x1000} {
		if a, b := stored.ReadLine(addr), counted.ReadLine(addr); !bytes.Equal(a, b) {
			t.Errorf("%#x: lines differ", addr)
		}
	}
	if counted.Recording() != nil {
		t.Error("counting recorder has a recording")
	}
	if got, want := counted.Bytes(), stored.Recording().Bytes(); got != want || got != stored.Bytes() {
		t.Errorf("counted %d bytes, stored recording %d (recorder %d)", got, want, stored.Bytes())
	}
}

func TestZeroWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero window did not panic")
		}
	}()
	NewModule(&Recording{}, 0, 0)
}

func TestRecorderCapturesSequence(t *testing.T) {
	backing := &SliceBacking{Base: 0x1000, Data: bytes.Repeat([]byte{7}, 256)}
	rec := &Recording{}
	r := NewRecorder(backing, rec)
	got := r.ReadLine(0x1040)
	if got[0] != 7 {
		t.Errorf("recorder returned %d, want 7", got[0])
	}
	r.ReadLine(0x1000)
	if rec.Len() != 2 || rec.Entries[0].Addr != 0x1040 || rec.Entries[1].Addr != 0x1000 {
		t.Errorf("recording = %+v", rec.Entries)
	}
}

func TestSliceBacking(t *testing.T) {
	data := make([]byte, 200)
	for i := range data {
		data[i] = byte(i)
	}
	b := &SliceBacking{Base: 0x1000, Data: data}
	// Aligned read.
	line := b.ReadLine(0x1040)
	if line[0] != 64 || line[63] != 127 {
		t.Errorf("line = [%d..%d]", line[0], line[63])
	}
	// Unaligned address reads the containing line.
	line = b.ReadLine(0x1044)
	if line[0] != 64 {
		t.Errorf("unaligned read line[0] = %d, want 64", line[0])
	}
	// Below base and beyond the slice: zero lines.
	for _, addr := range []uint64{0x0, 0x1000 + 512} {
		line = b.ReadLine(addr)
		for _, v := range line {
			if v != 0 {
				t.Fatalf("out-of-range read at %#x not zero", addr)
			}
		}
	}
	// A read near the end is zero-padded, not out of range.
	line = b.ReadLine(0x1000 + 192)
	if line[0] != 192 || line[7] != 199 || line[8] != 0 {
		t.Errorf("tail line = [%d %d %d]", line[0], line[7], line[8])
	}
}

func TestZeroBacking(t *testing.T) {
	line := ZeroBacking{}.ReadLine(12345)
	if len(line) != LineSize {
		t.Fatalf("line size %d", len(line))
	}
	for _, v := range line {
		if v != 0 {
			t.Fatal("non-zero byte from ZeroBacking")
		}
	}
}

// Property: replaying any recorded sequence with bounded local
// reordering (within half the window) matches every entry.
func TestBoundedReorderAlwaysMatches(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := int(size%64) + 8
		window := 16
		rec := seqRecording(n)
		// Perturb: swap adjacent pairs pseudo-randomly (displacement 1,
		// well within the window).
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i+1 < n; i += 2 {
			if rng.Intn(2) == 0 {
				order[i], order[i+1] = order[i+1], order[i]
			}
		}
		m := NewModule(rec, window, 0)
		for _, i := range order {
			if _, ok := m.Lookup(uint64(i) * LineSize); !ok {
				return false
			}
		}
		return m.Drained() && m.Skips() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: with random subsets of accesses dropped (cache hits), every
// issued access still matches and dropped ones age out as skips.
func TestDroppedAccessesAgeOut(t *testing.T) {
	f := func(seed int64) bool {
		n := 64
		rec := seqRecording(n)
		rng := rand.New(rand.NewSource(seed))
		m := NewModule(rec, 8, 0)
		issued := 0
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				continue // dropped: cache hit in the measured run
			}
			issued++
			if _, ok := m.Lookup(uint64(i) * LineSize); !ok {
				return false
			}
		}
		return int(m.Matches()) == issued
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
