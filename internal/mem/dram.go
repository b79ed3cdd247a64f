// Package mem models the host DRAM system: the normalization target of
// every experiment in the paper, and the memory that the device's
// request fetchers DMA into and out of on the software-managed-queue
// path.
//
// The model is intentionally simple — a fixed loaded latency with a
// chip-level cap on simultaneous accesses — because the paper uses DRAM
// only as a baseline and explicitly verified that its outstanding-access
// limit (>= 48) never binds in any experiment (§V-B).
package mem

import (
	"repro/internal/sim"
)

// DRAM is the host memory system.
type DRAM struct {
	eng     *sim.Engine
	latency sim.Time
	slots   *sim.TokenPool

	reads  uint64
	writes uint64

	free []*access // completed access records, for reuse
}

// access is one read or write in flight: it holds a chip-level slot
// for the loaded latency, then either fires its gate or schedules its
// continuation. Its callbacks are bound once, when the record is first
// built; the record goes back on the DRAM's free list when complete
// runs, the last use of it.
type access struct {
	d    *DRAM
	done *sim.Gate
	then func()

	acquiredFn func()
	completeFn func()
}

// New creates a DRAM model with the given loaded access latency and
// chip-level outstanding-access limit.
func New(eng *sim.Engine, latency sim.Time, maxOutstanding int) *DRAM {
	return &DRAM{
		eng:     eng,
		latency: latency,
		slots:   eng.NewTokenPool("dram", maxOutstanding),
	}
}

// Latency returns the loaded access latency.
func (d *DRAM) Latency() sim.Time { return d.latency }

// Reads returns the number of read accesses completed or in flight.
func (d *DRAM) Reads() uint64 { return d.reads }

// Writes returns the number of write accesses completed or in flight.
func (d *DRAM) Writes() uint64 { return d.writes }

// MaxOutstandingSeen returns the peak simultaneous occupancy observed,
// used to check that DRAM never becomes the bottleneck (§V-B).
func (d *DRAM) MaxOutstandingSeen() int { return d.slots.MaxInUse() }

// Read performs an asynchronous read; done fires when the data is
// available. Waits for a free slot first if the chip-level limit is
// reached.
func (d *DRAM) Read(done *sim.Gate) {
	d.reads++
	d.access(done, nil)
}

// ReadThen is Read with a continuation: then runs as an engine event
// at the instant the data is available, exactly when a waiter of
// Read's gate would.
func (d *DRAM) ReadThen(then func()) {
	d.reads++
	d.access(nil, then)
}

// Write performs an asynchronous write; done fires when it completes.
// Device-initiated response-data and completion-queue writes land here
// on the software-managed-queue path.
func (d *DRAM) Write(done *sim.Gate) {
	d.writes++
	d.access(done, nil)
}

// WriteThen is Write with a continuation, like ReadThen.
func (d *DRAM) WriteThen(then func()) {
	d.writes++
	d.access(nil, then)
}

func (d *DRAM) access(done *sim.Gate, then func()) {
	var a *access
	if n := len(d.free); n > 0 {
		a = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		a = &access{d: d}
		a.acquiredFn = a.acquired
		a.completeFn = a.complete
	}
	a.done, a.then = done, then
	d.slots.OnAcquire(a.acquiredFn)
}

func (a *access) acquired() { a.d.eng.After(a.d.latency, a.completeFn) }

// complete releases the slot and fires the gate, or schedules the
// continuation at the current instant: the same now-queue event the
// gate's single waiter would have been.
func (a *access) complete() {
	d, done, then := a.d, a.done, a.then
	a.done, a.then = nil, nil
	d.free = append(d.free, a)
	d.slots.Release()
	if done != nil {
		done.Fire()
	} else {
		d.eng.At(d.eng.Now(), then)
	}
}
