package sim

import "fmt"

// TokenPool models a finite hardware queue: a fixed number of slots that
// requests occupy for their lifetime. It is the primitive behind the two
// structures the paper identifies as the bottlenecks of prefetch-based
// access (§V-B): the 10-entry per-core Line Fill Buffers and the
// 14-entry chip-level queue shared by all cores on the PCIe path.
//
// Waiters are granted tokens in FIFO order, matching the in-order
// allocation of hardware queue entries.
type TokenPool struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	waiters  []func()

	// occupancy statistics
	maxInUse   int
	acquires   uint64
	stalls     uint64 // acquires that had to wait
	lastChange Time
	occupancy  float64 // time-weighted occupancy integral, token-ps

	// onChange, when set, observes every occupancy change (tracing).
	// It must not schedule events or otherwise perturb the simulation.
	onChange func(inUse int)

	_ [16]byte // fill two cache lines (see cacheLine)
}

// cacheLine is the line size the hot resources below are padded to. A
// fleet builds its instances on one goroutine and then runs them on
// several, so without padding two instances' pools or link directions
// can share a line written from two threads.
const cacheLine = 64

// NewTokenPool creates a pool with the given capacity. Capacity must be
// positive.
func (e *Engine) NewTokenPool(name string, capacity int) *TokenPool {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: token pool %q with capacity %d", name, capacity))
	}
	return &TokenPool{eng: e, name: name, capacity: capacity}
}

// Capacity returns the pool size.
func (t *TokenPool) Capacity() int { return t.capacity }

// InUse returns the number of tokens currently held.
func (t *TokenPool) InUse() int { return t.inUse }

// MaxInUse returns the maximum simultaneous occupancy observed.
func (t *TokenPool) MaxInUse() int { return t.maxInUse }

// Acquires returns the number of successful acquisitions so far.
func (t *TokenPool) Acquires() uint64 { return t.acquires }

// Stalls returns how many acquisitions had to wait for a free token.
func (t *TokenPool) Stalls() uint64 { return t.stalls }

// MeanOccupancy returns the time-averaged number of tokens in use.
func (t *TokenPool) MeanOccupancy() float64 {
	if t.eng.now == 0 {
		return 0
	}
	integral := t.occupancy + float64(t.inUse)*float64(t.eng.now-t.lastChange)
	return integral / float64(t.eng.now)
}

func (t *TokenPool) account() {
	t.occupancy += float64(t.inUse) * float64(t.eng.now-t.lastChange)
	t.lastChange = t.eng.now
}

// TryAcquire takes a token if one is free and no earlier waiter is
// queued, reporting success.
func (t *TokenPool) TryAcquire() bool {
	if t.inUse >= t.capacity || len(t.waiters) > 0 {
		return false
	}
	t.grant()
	return true
}

// SetOnChange installs an observer invoked synchronously after every
// occupancy change with the new in-use count. Used by the trace layer to
// sample occupancy timelines on state change; a nil observer disables
// it. The observer must not schedule events.
func (t *TokenPool) SetOnChange(fn func(inUse int)) { t.onChange = fn }

func (t *TokenPool) grant() {
	t.account()
	t.inUse++
	t.acquires++
	if t.inUse > t.maxInUse {
		t.maxInUse = t.inUse
	}
	if t.onChange != nil {
		t.onChange(t.inUse)
	}
}

// OnAcquire requests a token and runs fn (as an engine event) once it is
// granted; if a token is free now, fn is scheduled at the current time.
func (t *TokenPool) OnAcquire(fn func()) {
	if !t.Acquire(fn) {
		t.eng.pushNow(fn)
	}
}

// Acquire is the continuation form of taking a token. If one is free
// and no earlier waiter is queued, it is granted at once and Acquire
// reports false: the caller continues inline, holding it, and nothing
// is scheduled. Otherwise fn joins the FIFO and Acquire reports true:
// the caller must park until Release grants the token and runs fn as
// an engine event.
func (t *TokenPool) Acquire(fn func()) bool {
	if t.TryAcquire() {
		return false
	}
	t.stalls++
	t.waiters = append(t.waiters, fn)
	return true
}

// Release returns a token to the pool, granting it to the oldest waiter
// if any. Releasing an unheld token panics.
func (t *TokenPool) Release() {
	if t.inUse <= 0 {
		panic(fmt.Sprintf("sim: release on empty token pool %q", t.name))
	}
	t.account()
	t.inUse--
	if t.onChange != nil {
		t.onChange(t.inUse)
	}
	if len(t.waiters) > 0 {
		fn := t.waiters[0]
		t.waiters = t.waiters[:copy(t.waiters, t.waiters[1:])]
		t.grant()
		t.eng.At(t.eng.now, fn)
	}
}

// AcquireToken blocks the process until a token is granted.
func (p *Proc) AcquireToken(t *TokenPool) {
	if t.Acquire(p.resumeFn) {
		p.block()
	}
}

// Server models a work-conserving FIFO service center with deterministic
// service times — the primitive behind link serialization (a PCIe
// direction transmitting one TLP at a time) and similar pipelined
// resources. Submit reserves the next slot and returns the transmission
// interval; the caller schedules its own completion callback.
type Server struct {
	eng    *Engine
	name   string
	freeAt Time
	busy   Time // total busy time, for utilization
	jobs   uint64

	_ [16]byte // fill one cache line (see cacheLine)
}

// NewServer creates an idle server.
func (e *Engine) NewServer(name string) *Server {
	return &Server{eng: e, name: name}
}

// Submit enqueues a job with the given service time and returns its
// start and end times. The job begins when all previously submitted work
// has drained (FIFO).
func (s *Server) Submit(service Time) (start, end Time) {
	if service < 0 {
		panic(fmt.Sprintf("sim: negative service time %v on %q", service, s.name))
	}
	start = maxTime(s.eng.now, s.freeAt)
	end = start + service
	s.freeAt = end
	s.busy += service
	s.jobs++
	return start, end
}

// BusyTime returns the cumulative time the server has spent serving.
func (s *Server) BusyTime() Time { return s.busy }

// Jobs returns the number of jobs submitted.
func (s *Server) Jobs() uint64 { return s.jobs }

// Utilization returns busy time divided by elapsed simulated time.
func (s *Server) Utilization() float64 {
	if s.eng.now == 0 {
		return 0
	}
	busy := s.busy
	// Work scheduled beyond the current time has not happened yet.
	if s.freeAt > s.eng.now {
		busy -= s.freeAt - s.eng.now
	}
	return float64(busy) / float64(s.eng.now)
}
