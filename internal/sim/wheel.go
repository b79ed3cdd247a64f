package sim

import (
	"math"
	"math/bits"
)

// The timing wheel holds every timed event due within wheelSpan of the
// current bucket: 4096 buckets of 1024 ps each, about 4.19 µs. The
// model's delays are short and bounded (in the quick paper sweep 99.7%
// of timed pushes land inside the span), so nearly every event is
// pushed and popped in O(1) without a comparison sift.
const (
	wheelWidthBits = 10
	wheelWidth     = Time(1) << wheelWidthBits
	wheelBits      = 12
	wheelSize      = 1 << wheelBits
	wheelSpan      = wheelWidth * wheelSize
)

// wnode is one wheel event in its bucket's list.
type wnode struct {
	ev   event
	next int32 // the next node of the bucket, or of the free list; 0 ends it
}

// wheel is a calendar queue of events whose times lie in
// [base, base+wheelSpan), where base is the start of the current time's
// bucket. Because the clock never moves backwards and an event enters
// the wheel only inside that window, no bucket ever holds events of two
// revolutions: the first non-empty bucket at or after the current one,
// circularly, holds the earliest events.
//
// Each bucket is a singly linked list of nodes, in (at, seq) order,
// drawn from one slab. Freed nodes are reused last-in first-out, so the
// few dozen nodes a run keeps live stay in cache.
type wheel struct {
	nodes []wnode // the slab; node 0 is unused, so index 0 is the nil link
	free  int32   // the first free node

	// ends holds bucket i's first node at 2i and last at 2i+1; both
	// are 0 when the bucket is empty.
	ends  *[2 * wheelSize]int32
	bits  [wheelSize / 64]uint64 // the non-empty buckets
	words uint64                 // the non-zero words of bits
	n     int                    // events held

	// The earliest event's bucket and time, kept current by push and
	// pop so the dispatch loop reads them without a scan. minAt is
	// math.MaxInt64 when the wheel is empty.
	minB  int
	minAt Time
}

// wheelScratch is an empty wheel's recyclable storage.
type wheelScratch struct {
	nodes []wnode
	ends  *[2 * wheelSize]int32
}

// init readies an empty wheel on s's storage (zero: new storage).
func (w *wheel) init(s wheelScratch) {
	if s.ends == nil {
		s.ends = new([2 * wheelSize]int32)
	}
	w.nodes = append(s.nodes[:0], wnode{})
	w.ends = s.ends
	w.minAt = math.MaxInt64
}

// scratch returns the storage of the empty wheel for reuse. Popped
// nodes hold no callback, and every bucket's ends are 0.
func (w *wheel) scratch() wheelScratch {
	return wheelScratch{nodes: w.nodes, ends: w.ends}
}

// push adds ev, which the caller has checked is due inside the window.
// ev carries the largest seq yet, so it goes after every event of its
// bucket due at or before it — almost always at the tail.
func (w *wheel) push(ev event) {
	n := w.free
	if n != 0 {
		w.free = w.nodes[n].next
		w.nodes[n] = wnode{ev: ev}
	} else {
		n = int32(len(w.nodes))
		w.nodes = append(w.nodes, wnode{ev: ev})
	}
	i := int(ev.at>>wheelWidthBits) & (wheelSize - 1)
	head, tail := &w.ends[2*i], &w.ends[2*i+1]
	switch {
	case *head == 0:
		*head, *tail = n, n
		w.bits[i>>6] |= 1 << (i & 63)
		w.words |= 1 << (i >> 6)
	case w.nodes[*tail].ev.at <= ev.at:
		w.nodes[*tail].next = n
		*tail = n
	case w.nodes[*head].ev.at > ev.at:
		w.nodes[n].next = *head
		*head = n
	default:
		// Somewhere in the middle: after the last node due at or
		// before ev, which the tail check shows is not the tail.
		p := *head
		for w.nodes[w.nodes[p].next].ev.at <= ev.at {
			p = w.nodes[p].next
		}
		w.nodes[n].next = w.nodes[p].next
		w.nodes[p].next = n
	}
	w.n++
	if ev.at < w.minAt {
		w.minB, w.minAt = i, ev.at
	}
}

// pop removes and returns the earliest event. The caller must have
// checked the wheel is non-empty.
func (w *wheel) pop() event {
	i := w.minB & (wheelSize - 1)
	head := &w.ends[2*i]
	n := *head
	node := &w.nodes[n]
	ev := node.ev
	*head = node.next
	node.ev.fn = nil // release the callback reference
	node.next = w.free
	w.free = n
	w.n--
	if *head != 0 {
		w.minAt = w.nodes[*head].ev.at
		return ev
	}
	w.ends[2*i+1] = 0
	if w.bits[i>>6] &^= 1 << (i & 63); w.bits[i>>6] == 0 {
		w.words &^= 1 << (i >> 6)
	}
	w.findMin(i)
	return ev
}

// findMin points the cached minimum at the first non-empty bucket at
// or after bucket from, circularly.
func (w *wheel) findMin(from int) {
	i := -1
	wi := from >> 6
	if m := w.bits[wi] >> (from & 63); m != 0 {
		i = from + bits.TrailingZeros64(m)
	} else if w.words != 0 {
		// Words after wi first; then, wrapping round, words up to wi
		// (whose bits at or after from are already known clear).
		s := w.words &^ (2<<wi - 1)
		if s == 0 {
			s = w.words
		}
		wj := bits.TrailingZeros64(s)
		i = wj<<6 + bits.TrailingZeros64(w.bits[wj])
	}
	if i < 0 {
		w.minAt = math.MaxInt64
		return
	}
	w.minB, w.minAt = i, w.nodes[w.ends[2*i]].ev.at
}
