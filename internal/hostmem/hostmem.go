// Package hostmem provides the in-memory descriptor structures of the
// application-managed software-queue interface (§III-A, §IV-A): a
// per-core request queue of access descriptors, a completion queue the
// device writes back into, and the doorbell-request flag that lets the
// host skip the costly MMIO doorbell while the device's request fetcher
// is already running.
//
// These are pure data structures; the *timing* of manipulating them
// (descriptor writes, DMA reads, completion polls) is charged by the
// host-core model and the device's request fetchers.
package hostmem

import (
	"repro/internal/attrib"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Descriptor is one software-queue request: "Each descriptor contains
// the address to read, and the target address where the response data is
// to be stored" (§IV-A).
type Descriptor struct {
	ID        uint64 // unique per queue, for completion matching
	Addr      uint64 // device address to read or write
	Target    uint64 // host-memory address for the response/source data
	Write     bool   // write-path extension (§VII): Target holds the data to store
	Submitted sim.Time

	// Span is the access-lifecycle trace span riding along with the
	// descriptor so the device side can stamp fetch/serve/completion
	// edges. The zero Span (tracing disabled) is a no-op.
	Span trace.Span

	// Attrib is the latency-attribution ledger riding along with the
	// descriptor so the device side can mark phase boundaries (fetch,
	// serve, data landing, completion posting). Nil (attribution
	// disabled) makes every mark a no-op.
	Attrib *attrib.Access
}

// Completion is one completion-queue entry; the device guarantees it is
// written after the response data (§IV-A).
type Completion struct {
	ID     uint64
	Posted sim.Time
}

// RequestQueue is a per-core in-memory request ring plus its
// doorbell-request flag.
type RequestQueue struct {
	pending []Descriptor
	nextID  uint64

	// doorbellRequested is the in-memory flag the device sets when its
	// request fetcher stops, telling the host that the next submission
	// must ring the MMIO doorbell (§III-A). It starts set: the very
	// first request always needs a doorbell.
	doorbellRequested bool

	submitted uint64
	maxDepth  int

	// OnChange, when set, observes every pending-depth change — the
	// trace layer's SQ-depth timeline. It must not mutate the queue.
	OnChange func(n int)
}

// NewRequestQueue returns an empty queue with the doorbell-request flag
// set.
func NewRequestQueue() *RequestQueue {
	return &RequestQueue{doorbellRequested: true}
}

// Push appends a read descriptor for the given device address, stamping
// it with the submission time, and returns its ID.
func (q *RequestQueue) Push(addr, target uint64, now sim.Time) uint64 {
	return q.push(addr, target, now, false, trace.Span{}, nil)
}

// PushTracked is Push carrying the access's observers: a trace span,
// so the device side can stamp fetch/serve/completion edges on it, and
// a latency-attribution ledger, so it can mark phase boundaries.
// Either or both may be zero/nil.
func (q *RequestQueue) PushTracked(addr, target uint64, now sim.Time, sp trace.Span, aw *attrib.Access) uint64 {
	return q.push(addr, target, now, false, sp, aw)
}

// PushWrite appends a write descriptor (§VII extension): the device
// will fetch the line at target from host memory and store it at addr.
func (q *RequestQueue) PushWrite(addr, target uint64, now sim.Time) uint64 {
	return q.push(addr, target, now, true, trace.Span{}, nil)
}

func (q *RequestQueue) push(addr, target uint64, now sim.Time, write bool, sp trace.Span, aw *attrib.Access) uint64 {
	id := q.nextID
	q.nextID++
	q.pending = append(q.pending, Descriptor{ID: id, Addr: addr, Target: target, Write: write, Submitted: now, Span: sp, Attrib: aw})
	q.submitted++
	if len(q.pending) > q.maxDepth {
		q.maxDepth = len(q.pending)
	}
	if q.OnChange != nil {
		q.OnChange(len(q.pending))
	}
	return id
}

// PopBurst removes and returns up to max descriptors from the head of
// the queue — the device-side burst read (§IV-A: "retrieves descriptors
// in bursts of eight").
func (q *RequestQueue) PopBurst(max int) []Descriptor {
	n := max
	if n > len(q.pending) {
		n = len(q.pending)
	}
	if n == 0 {
		return nil
	}
	burst := make([]Descriptor, n)
	copy(burst, q.pending[:n])
	q.pending = q.pending[:copy(q.pending, q.pending[n:])]
	if q.OnChange != nil {
		q.OnChange(len(q.pending))
	}
	return burst
}

// Len returns the number of descriptors awaiting fetch.
func (q *RequestQueue) Len() int { return len(q.pending) }

// Submitted returns the total number of descriptors ever pushed.
func (q *RequestQueue) Submitted() uint64 { return q.submitted }

// MaxDepth returns the high-water mark of pending descriptors.
func (q *RequestQueue) MaxDepth() int { return q.maxDepth }

// DoorbellRequested reports whether the next submission must ring the
// MMIO doorbell.
func (q *RequestQueue) DoorbellRequested() bool { return q.doorbellRequested }

// SetDoorbellRequested is called by the device when its fetcher goes
// idle.
func (q *RequestQueue) SetDoorbellRequested() { q.doorbellRequested = true }

// ClearDoorbellRequested is called by the host after ringing the
// doorbell.
func (q *RequestQueue) ClearDoorbellRequested() { q.doorbellRequested = false }

// CompletionQueue is a per-core in-memory completion ring.
type CompletionQueue struct {
	entries  []Completion
	posted   uint64
	drained  uint64
	maxDepth int

	// OnChange, when set, observes every depth change — the trace
	// layer's CQ-depth timeline. It must not mutate the queue.
	OnChange func(n int)
}

// NewCompletionQueue returns an empty completion queue.
func NewCompletionQueue() *CompletionQueue {
	return &CompletionQueue{}
}

// Post appends a completion entry (device side).
func (q *CompletionQueue) Post(id uint64, now sim.Time) {
	q.entries = append(q.entries, Completion{ID: id, Posted: now})
	q.posted++
	if len(q.entries) > q.maxDepth {
		q.maxDepth = len(q.entries)
	}
	if q.OnChange != nil {
		q.OnChange(len(q.entries))
	}
}

// Drain removes and returns all pending completions (host-side poll).
func (q *CompletionQueue) Drain() []Completion {
	if len(q.entries) == 0 {
		return nil
	}
	out := make([]Completion, len(q.entries))
	copy(out, q.entries)
	q.drained += uint64(len(out))
	q.entries = q.entries[:0]
	if q.OnChange != nil {
		q.OnChange(0)
	}
	return out
}

// Len returns the number of unconsumed completions.
func (q *CompletionQueue) Len() int { return len(q.entries) }

// Posted returns the total completions ever posted.
func (q *CompletionQueue) Posted() uint64 { return q.posted }

// MaxDepth returns the high-water mark of unconsumed completions.
func (q *CompletionQueue) MaxDepth() int { return q.maxDepth }
