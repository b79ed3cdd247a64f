package hostmem

import (
	"math/rand"
	"slices"
	"testing"
)

// ringScript drives an IDRing and a map oracle through the same
// operations, read from ops two bytes at a time, and fails on the first
// disagreement. IDs come from a sequential counter, as a RequestQueue
// hands them out; the operations put the next ID, put an ID below the
// lowest live one (a response landing out of order), put a random ID
// near the counter, take a live or a dead ID, or read one back. IDs
// the script never takes pin the ring's base, so later IDs grow it
// across the wrap.
func ringScript(t *testing.T, base uint64, ops []byte) {
	t.Helper()
	var r IDRing[uint64]
	oracle := map[uint64]uint64{}
	next := base
	live := func() []uint64 {
		ids := make([]uint64, 0, len(oracle))
		for id := range oracle {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids
	}
	for k := 0; k+1 < len(ops); k += 2 {
		op, arg := ops[k]%6, uint64(ops[k+1])
		switch op {
		case 0: // the next sequential ID
			r.Put(next, next^arg)
			oracle[next] = next ^ arg
			next++
		case 1: // below the lowest live ID, where there is room
			ids := live()
			if len(ids) == 0 || ids[0]-base <= arg%8 {
				continue
			}
			id := ids[0] - 1 - arg%8
			r.Put(id, arg)
			oracle[id] = arg
		case 2: // any ID near the counter, live or not
			if next-base <= arg%64 {
				continue
			}
			id := next - 1 - arg%64
			r.Put(id, arg<<8)
			oracle[id] = arg << 8
		case 3, 4: // take a live ID, out of order
			ids := live()
			if len(ids) == 0 {
				continue
			}
			id := ids[int(arg)%len(ids)]
			v, ok := r.Take(id)
			if !ok || v != oracle[id] {
				t.Fatalf("op %d: Take(%d) = %d, %v; want %d, true", k/2, id, v, ok, oracle[id])
			}
			delete(oracle, id)
		case 5: // take or read an ID that may be dead or never put
			id := next + 2 - arg%64
			if id < base {
				continue
			}
			want, live := oracle[id]
			if v, ok := r.Get(id); ok != live || v != want {
				t.Fatalf("op %d: Get(%d) = %d, %v; want %d, %v", k/2, id, v, ok, want, live)
			}
			if arg%2 == 0 {
				v, ok := r.Take(id)
				if ok != live || v != want {
					t.Fatalf("op %d: Take(%d) = %d, %v; want %d, %v", k/2, id, v, ok, want, live)
				}
				delete(oracle, id)
			}
		}
		if r.Len() != len(oracle) {
			t.Fatalf("op %d: Len = %d, want %d", k/2, r.Len(), len(oracle))
		}
	}
	want := live()
	var got []uint64
	r.Range(func(id, v uint64) {
		if v != oracle[id] {
			t.Fatalf("Range: id %d has %d, want %d", id, v, oracle[id])
		}
		got = append(got, id)
	})
	if !slices.Equal(got, want) {
		t.Fatalf("Range visited %v, want the live IDs in order %v", got, want)
	}
	for _, id := range want {
		if v, ok := r.Get(id); !ok || v != oracle[id] {
			t.Fatalf("Get(%d) = %d, %v; want %d, true", id, v, ok, oracle[id])
		}
	}
}

// TestIDRingMatchesMap runs random operation scripts against the map
// oracle, with IDs counting from a small base and from a large one.
func TestIDRingMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*(50+rng.Intn(2000)))
		rng.Read(ops)
		ringScript(t, uint64(rng.Intn(100)), ops)
		ringScript(t, 1<<40-uint64(rng.Intn(40)), ops)
	}
}

// TestIDRingGrowsAcrossWrap pins growth with a pinned base: one ID is
// never taken while later ones come and go, so the live span outgrows
// the ring several times, and every live ID survives each move.
func TestIDRingGrowsAcrossWrap(t *testing.T) {
	var r IDRing[int]
	r.Put(5, -1) // never taken
	for id := uint64(6); id < 1000; id++ {
		r.Put(id, int(id))
		if id%3 != 0 {
			if v, ok := r.Take(id); !ok || v != int(id) {
				t.Fatalf("Take(%d) = %d, %v", id, v, ok)
			}
		}
	}
	if v, ok := r.Get(5); !ok || v != -1 {
		t.Fatalf("pinned ID lost: Get(5) = %d, %v", v, ok)
	}
	prev, n := uint64(4), 0
	r.Range(func(id uint64, v int) {
		if id <= prev || (id != 5 && (id%3 != 0 || v != int(id))) {
			t.Fatalf("Range visited %d (value %d) after %d", id, v, prev)
		}
		prev = id
		n++
	})
	if n != r.Len() || n != 1+332 {
		t.Fatalf("Range visited %d IDs, Len %d, want %d", n, r.Len(), 1+332)
	}
}

// TestIDRingBoundedWhenDrained pins that a ring whose IDs are all taken
// in time stays at its first size however many IDs pass through it.
func TestIDRingBoundedWhenDrained(t *testing.T) {
	var r IDRing[bool]
	for id := uint64(0); id < 100000; id++ {
		r.Put(id, true)
		if id >= 4 {
			r.Take(id - 4)
		}
	}
	if len(r.slots) != minRing {
		t.Fatalf("ring grew to %d slots holding a span of 5 IDs", len(r.slots))
	}
}

// FuzzIDRing is the map-oracle property over fuzzed operation scripts.
// The corpus's scripts run in plain `go test`; run it as a fuzzer with
//
//	go test -run '^$' -fuzz '^FuzzIDRing$' -fuzztime 20s ./internal/hostmem
func FuzzIDRing(f *testing.F) {
	f.Add(uint16(0), []byte{0, 0, 0, 1, 0, 2, 3, 0, 1, 5, 0, 9, 4, 1})
	f.Add(uint16(300), []byte{0, 0, 0, 0, 2, 1, 3, 1, 5, 2, 5, 3, 1, 7, 0, 0})
	seq := make([]byte, 0, 400)
	for i := 0; i < 100; i++ {
		seq = append(seq, 0, byte(i), 3, byte(i*7))
	}
	f.Add(uint16(7), seq)
	f.Fuzz(func(t *testing.T, base uint16, ops []byte) {
		ringScript(t, uint64(base), ops)
	})
}
