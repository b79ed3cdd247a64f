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
	"repro/internal/observe"
	"repro/internal/sim"
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

	// Obs is the access's observer handle riding along with the
	// descriptor so the device side can stamp its fetch, serve, data
	// landing and completion edges. The zero handle observes nothing.
	Obs observe.Access
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
	burst   []Descriptor // PopBurst's reused result buffer
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
// it with the submission time and carrying the access's observer
// handle (the zero handle for an unobserved read), and returns its ID.
func (q *RequestQueue) Push(addr, target uint64, now sim.Time, obs observe.Access) uint64 {
	return q.push(Descriptor{Addr: addr, Target: target, Submitted: now, Obs: obs})
}

// PushWrite appends a write descriptor (§VII extension): the device
// will fetch the line at target from host memory and store it at addr.
func (q *RequestQueue) PushWrite(addr, target uint64, now sim.Time) uint64 {
	return q.push(Descriptor{Addr: addr, Target: target, Write: true, Submitted: now})
}

// push assigns d the next ID and appends it.
func (q *RequestQueue) push(d Descriptor) uint64 {
	id := q.nextID
	q.nextID++
	d.ID = id
	q.pending = append(q.pending, d)
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
// in bursts of eight"). The returned slice is valid until the next
// PopBurst, which reuses its backing array.
func (q *RequestQueue) PopBurst(max int) []Descriptor {
	n := max
	if n > len(q.pending) {
		n = len(q.pending)
	}
	if n == 0 {
		return nil
	}
	q.burst = append(q.burst[:0], q.pending[:n]...)
	q.pending = q.pending[:copy(q.pending, q.pending[n:])]
	if q.OnChange != nil {
		q.OnChange(len(q.pending))
	}
	return q.burst
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
	spare    []Completion // the previous Drain's result, reused by the next
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
// The queue alternates between two buffers: the returned slice stays
// intact while Posts land (they go to the other buffer) and is valid
// until the next Drain, which hands its backing array back to Post.
func (q *CompletionQueue) Drain() []Completion {
	if len(q.entries) == 0 {
		return nil
	}
	out := q.entries
	q.entries, q.spare = q.spare[:0], out
	q.drained += uint64(len(out))
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
