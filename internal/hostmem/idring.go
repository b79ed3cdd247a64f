package hostmem

// IDRing maps descriptor IDs to values. A RequestQueue hands out IDs in
// sequence, so the IDs outstanding at any moment span a short range,
// and a power-of-two ring of slots indexed by the ID's low bits holds
// them without hashing. The ring doubles when the span from the lowest
// to the highest live ID outgrows it; IDs may arrive in any order,
// including below the lowest live one. The zero value is an empty ring.
type IDRing[T any] struct {
	slots []idSlot[T] // power-of-two length; slot id&mask holds id
	lo    uint64      // every live ID is in [lo, hi)
	hi    uint64
	n     int // live IDs
}

type idSlot[T any] struct {
	v  T
	ok bool
}

// minRing is the ring's first size.
const minRing = 16

// Len returns the number of live IDs.
func (r *IDRing[T]) Len() int { return r.n }

// Put maps id to v, replacing any value id already has.
func (r *IDRing[T]) Put(id uint64, v T) {
	switch {
	case r.n == 0:
		if len(r.slots) == 0 {
			r.slots = make([]idSlot[T], minRing)
		}
		r.lo, r.hi = id, id+1
	case id < r.lo:
		r.fit(r.hi - id)
		r.lo = id
	case id >= r.hi:
		r.fit(id + 1 - r.lo)
		r.hi = id + 1
	}
	s := &r.slots[id&uint64(len(r.slots)-1)]
	if !s.ok {
		r.n++
	}
	s.v, s.ok = v, true
}

// fit grows the ring, if need be, to hold a span of IDs, moving each
// live ID of [lo, hi) to its slot in the larger ring.
func (r *IDRing[T]) fit(span uint64) {
	if span <= uint64(len(r.slots)) {
		return
	}
	size := 2 * len(r.slots)
	for uint64(size) < span {
		size *= 2
	}
	slots := make([]idSlot[T], size)
	old := uint64(len(r.slots) - 1)
	for id := r.lo; id < r.hi; id++ {
		slots[id&uint64(size-1)] = r.slots[id&old]
	}
	r.slots = slots
}

// Get returns id's value and whether id is live.
func (r *IDRing[T]) Get(id uint64) (T, bool) {
	if id < r.lo || id >= r.hi {
		var zero T
		return zero, false
	}
	s := &r.slots[id&uint64(len(r.slots)-1)]
	return s.v, s.ok
}

// Take removes id and returns its value, reporting whether id was
// live.
func (r *IDRing[T]) Take(id uint64) (T, bool) {
	var zero T
	if id < r.lo || id >= r.hi {
		return zero, false
	}
	mask := uint64(len(r.slots) - 1)
	s := &r.slots[id&mask]
	if !s.ok {
		return zero, false
	}
	v := s.v
	*s = idSlot[T]{}
	r.n--
	switch {
	case r.n == 0:
		r.lo = r.hi
	case id == r.lo:
		for !r.slots[r.lo&mask].ok {
			r.lo++
		}
	case id == r.hi-1:
		for !r.slots[(r.hi-1)&mask].ok {
			r.hi--
		}
	}
	return v, true
}

// Range calls fn for every live ID in increasing order. fn must not
// change the ring.
func (r *IDRing[T]) Range(fn func(id uint64, v T)) {
	mask := uint64(len(r.slots) - 1)
	for id := r.lo; id < r.hi; id++ {
		if s := &r.slots[id&mask]; s.ok {
			fn(id, s.v)
		}
	}
}
