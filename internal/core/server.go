package core

import (
	"fmt"
	"strings"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Engine exposes the environment's event engine so a composition layer
// (the cluster driver) can advance many instances in lockstep.
func (e *Env) Engine() *sim.Engine { return e.eng }

// Config returns the platform configuration the environment was built
// with.
func (e *Env) Config() platform.Config { return e.cfg }

// Server turns one Env into an open-loop request service: instead of a
// fixed set of closed-loop threads running to completion, requests
// arrive from outside at arbitrary simulation times and a bounded pool
// of user-level worker contexts serves them through one of the paper's
// access mechanisms. The mechanism cost structure is preserved —
// prefetch workers allocate LFB entries and chip-queue slots per line
// and yield the core while lines are in flight, software-queue workers
// pay the batch + per-descriptor management cost on the core but
// bypass the hardware queues, on-demand workers block the core for the
// full device round trip — so per-instance capacity inherits the
// single-host knees (LFB limit, chip-queue limit, SWQ overhead cap)
// and a fleet built from Servers inherits their crossover behavior.
type Server struct {
	e          *Env
	mech       string
	valueLines int
	workInstr  int
	valueSkew  bool

	// One single-token pool per core serializes instruction execution:
	// a worker must hold its core's slot to issue, switch, or compute,
	// and releases it while its lines are in flight, exactly like the
	// closed-loop schedulers overlap threads.
	slot    []*sim.TokenPool
	workers []*serverWorker
	idle    []*serverWorker // stack of parked workers
	queue   []serverReq     // backlog when every worker is busy
	closed  bool

	arrived         uint64
	completed       uint64
	outstanding     int
	peakOutstanding int
	lastComplete    sim.Time
	lat             *stats.Histogram
}

type serverReq struct {
	key     uint64
	arrival sim.Time
}

// serverWorker is one user-level worker context, run as an engine
// continuation: each state below follows one of the worker's simulated
// waits.
type serverWorker struct {
	s        *Server
	id       int
	core     int
	resumeFn func()
	state    workerState
	done     bool // the worker exited after Close

	req    serverReq
	n      int         // lines of req
	i      int         // next line of req to issue
	lines  []*lineRead // the request's reads in flight, reused across requests
	waited int         // lines already awaited
	landed workerState // the state to continue in once every line has landed
}

type workerState uint8

const (
	swIdle       workerState = iota // take the next request, or park until one arrives
	swDispatch                      // the core slot is held: switch to the worker
	swFetch                         // the worker is on the core: fetch by mechanism
	swPrefetch                      // prefetch line w.i
	swLFBTaken                      // line w.i holds its LFB entry
	swPrefetched                    // line w.i's prefetch is issued
	swDescribe                      // write line w.i's descriptor
	swDescribed                     // line w.i's descriptor is written
	swDemand                        // demand-load line w.i
	swAwait                         // wait for the lines in flight, then go to w.landed
	swRetake                        // the lines have landed: take the core back
	swPoll                          // poll the completion queue
	swSwitchBack                    // switch back to the worker
	swWork                          // run the post-fetch work
	swServed                        // the request is served: release the core
)

// ServerConfig parameterizes an open-loop service.
type ServerConfig struct {
	Mech       string // prefetch, swqueue, or ondemand
	Workers    int    // total user-level context pool, spread round-robin over cores
	ValueLines int    // device lines fetched per request (the memcached value size)
	WorkInstr  int    // post-fetch compute per request

	// ValueSkew makes the per-request line count key-dependent — a
	// deterministic hash spreads sizes over [1, 2*ValueLines-1] with
	// mean ValueLines — modeling the size heterogeneity of a real
	// memcached item population. Off, every request is ValueLines.
	ValueSkew bool
}

// NewServer builds an open-loop service over the environment.
func NewServer(e *Env, sc ServerConfig) (*Server, error) {
	switch sc.Mech {
	case "prefetch", "swqueue", "ondemand":
	default:
		return nil, fmt.Errorf("core: unknown server mechanism %q", sc.Mech)
	}
	if sc.Workers < 1 {
		return nil, fmt.Errorf("core: server needs at least 1 worker, got %d", sc.Workers)
	}
	if sc.ValueLines < 1 {
		return nil, fmt.Errorf("core: server needs at least 1 value line, got %d", sc.ValueLines)
	}
	s := &Server{
		e:          e,
		mech:       sc.Mech,
		valueLines: sc.ValueLines,
		workInstr:  sc.WorkInstr,
		valueSkew:  sc.ValueSkew,
		slot:       make([]*sim.TokenPool, e.cfg.Cores),
		lat:        stats.NewHistogram(),
	}
	for i := range s.slot {
		s.slot[i] = e.eng.NewTokenPool("coreslot", 1)
	}
	// Each worker starts in a now-queue event of its own, as a process
	// would.
	s.workers = make([]*serverWorker, sc.Workers)
	for i := range s.workers {
		w := &serverWorker{s: s, id: i, core: i % e.cfg.Cores}
		w.resumeFn = w.resume
		s.workers[i] = w
		e.eng.At(e.eng.Now(), w.resumeFn)
	}
	return s, nil
}

// Submit enqueues one request at the current simulation time. The
// caller (the cluster's lockstep driver) must have advanced the
// engine's clock to the request's arrival time first.
func (s *Server) Submit(key uint64) {
	if s.closed {
		panic("core: Submit on closed server")
	}
	s.arrived++
	s.outstanding++
	if s.outstanding > s.peakOutstanding {
		s.peakOutstanding = s.outstanding
	}
	s.queue = append(s.queue, serverReq{key: key, arrival: s.e.eng.Now()})
	s.wakeOne()
}

// Close marks the arrival stream finished; workers drain the backlog
// and exit. The engine still has to run for the drain to happen.
func (s *Server) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for len(s.idle) > 0 {
		s.wakeOne()
	}
}

// Arrived returns the number of requests submitted so far.
func (s *Server) Arrived() uint64 { return s.arrived }

// Completed returns the number of requests fully served so far.
func (s *Server) Completed() uint64 { return s.completed }

// Outstanding returns the requests accepted but not yet completed —
// the router's least-outstanding signal.
func (s *Server) Outstanding() int { return s.outstanding }

// QueueDepth returns the backlog not yet picked up by any worker —
// the router's queue-depth signal.
func (s *Server) QueueDepth() int { return len(s.queue) }

// PeakOutstanding returns the high-water mark of in-flight requests.
func (s *Server) PeakOutstanding() int { return s.peakOutstanding }

// LastComplete returns the completion time of the latest request.
func (s *Server) LastComplete() sim.Time { return s.lastComplete }

// Latencies returns the end-to-end (arrival to completion) latency
// histogram. The histogram is live; merge or query it only after the
// engine has drained.
func (s *Server) Latencies() *stats.Histogram { return s.lat }

// Check is the server's quiescence watchdog, for after the arrival
// stream is closed and the engine has drained: a worker that has not
// exited is parked on a wakeup that will never come (a lost
// completion, say), and Check names every such worker instead of
// letting the caller summarize a truncated run.
func (s *Server) Check() error {
	var stuck []string
	for _, w := range s.workers {
		if !w.done {
			stuck = append(stuck, fmt.Sprintf("srvworker%d", w.id))
		}
	}
	if len(stuck) > 0 {
		return fmt.Errorf("core: quiescent with %d server worker(s) still blocked: %s", len(stuck), strings.Join(stuck, ", "))
	}
	return nil
}

// wakeOne resumes the most recently parked idle worker, if any, in a
// now-queue event of its own.
func (s *Server) wakeOne() {
	if len(s.idle) == 0 {
		return
	}
	w := s.idle[len(s.idle)-1]
	s.idle = s.idle[:len(s.idle)-1]
	s.e.eng.At(s.e.eng.Now(), w.resumeFn)
}

// addrFor lays the request's value out in the worker core's private
// device address range, memcached-style: valueLines consecutive lines
// per key.
func (s *Server) addrFor(core int, key uint64, line int) uint64 {
	const coreRegionBits = 40
	off := (key*uint64(s.valueLines) + uint64(line)) * platform.CacheLineBytes
	return uint64(core)<<coreRegionBits | off&(1<<coreRegionBits-1)
}

// lines returns the request's value size in device lines: fixed, or
// key-hashed over [1, 2*ValueLines-1] when size skew is on.
func (s *Server) lines(key uint64) int {
	if !s.valueSkew {
		return s.valueLines
	}
	return 1 + int(mix64(key)%uint64(2*s.valueLines-1))
}

// mix64 is one splitmix64 finalization round, the same hash the
// workloads use for key streams.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// resume runs the worker until it must wait or exits. One request
// runs under the server's mechanism: every path charges one context
// switch at dispatch (the worker context is scheduled onto the core)
// and runs the post-fetch work with the core slot held, so mechanisms
// differ only in how they fetch.
func (w *serverWorker) resume() {
	s := w.s
	e := s.e
	slot := s.slot[w.core]
	for {
		switch w.state {
		case swIdle:
			if len(s.queue) == 0 {
				if s.closed {
					w.done = true
					return
				}
				s.idle = append(s.idle, w)
				return
			}
			w.req = s.queue[0]
			s.queue = s.queue[1:]
			w.n = s.lines(w.req.key)
			w.i = 0
			w.state = swDispatch
			if slot.Acquire(w.resumeFn) {
				return
			}

		case swDispatch:
			w.state = swFetch
			if e.eng.Delay(e.cfg.CtxSwitch, w.resumeFn) {
				return
			}

		case swFetch:
			switch s.mech {
			case "prefetch":
				w.state = swPrefetch
			case "swqueue":
				// The batch management cost is paid on the core first.
				w.state = swDescribe
				if e.eng.Delay(e.cfg.SWQBatchOverhead, w.resumeFn) {
					return
				}
			case "ondemand":
				w.state = swDemand
			}

		case swPrefetch:
			// Listing 1 shape: issue a non-binding prefetch per line
			// (LFB entry, then a chip-level queue slot on the way out),
			// yield the core while the lines are in flight, and pay a
			// context switch when the demand loads resume.
			if w.i == w.n {
				slot.Release()
				w.await(swRetake)
				continue
			}
			w.state = swLFBTaken
			if e.lfb[w.core].Acquire(w.resumeFn) {
				return
			}

		case swLFBTaken:
			w.state = swPrefetched
			if e.eng.Delay(e.cfg.PrefetchIssue, w.resumeFn) {
				return
			}

		case swPrefetched:
			ln := e.newLine(w.core, s.addrFor(w.core, w.req.key, w.i))
			ln.chip, ln.lfb = e.chip, e.lfb[w.core]
			w.lines = append(w.lines, ln)
			e.chip.OnAcquire(ln.acquiredFn)
			w.i++
			w.state = swPrefetch

		case swDescribe:
			// §III-A shape: the per-descriptor queue management cost is
			// paid on the core, the descriptors then travel by DMA — no
			// LFB entries, no chip-queue slots — and the worker yields
			// until the batch completes.
			if w.i == w.n {
				slot.Release()
				w.await(swRetake)
				continue
			}
			w.state = swDescribed
			if e.eng.Delay(e.cfg.SWQPerAccessOverhead, w.resumeFn) {
				return
			}

		case swDescribed:
			ln := e.newLine(w.core, s.addrFor(w.core, w.req.key, w.i))
			w.lines = append(w.lines, ln)
			ln.read()
			w.i++
			w.state = swDescribe

		case swDemand:
			// Blocking demand loads: the core slot is held for every
			// full device round trip, one line at a time.
			if w.i == w.n {
				w.state = swWork
				continue
			}
			ln := e.newLine(w.core, s.addrFor(w.core, w.req.key, w.i))
			ln.chip = e.chip
			w.lines = append(w.lines, ln)
			e.chip.OnAcquire(ln.acquiredFn)
			w.i++
			w.await(swDemand)

		case swAwait:
			// Wait until every line in flight has landed, then recycle
			// the lines.
			for w.waited < len(w.lines) {
				ln := w.lines[w.waited]
				w.waited++
				if ln.g.Await(w.resumeFn) {
					return
				}
			}
			for i, ln := range w.lines {
				e.consumed(ln)
				w.lines[i] = nil
			}
			w.lines = w.lines[:0]
			w.state = w.landed

		case swRetake:
			// The lines have landed: take the core back.
			w.state = swSwitchBack
			if s.mech == "swqueue" {
				w.state = swPoll
			}
			if slot.Acquire(w.resumeFn) {
				return
			}

		case swPoll:
			w.state = swSwitchBack
			if e.eng.Delay(e.cfg.CompletionPoll, w.resumeFn) {
				return
			}

		case swSwitchBack:
			w.state = swWork
			if e.eng.Delay(e.cfg.CtxSwitch, w.resumeFn) {
				return
			}

		case swWork:
			w.state = swServed
			if s.workInstr > 0 && e.eng.Delay(e.work.Time(&e.cfg, s.workInstr), w.resumeFn) {
				return
			}

		case swServed:
			slot.Release()
			s.completed++
			s.outstanding--
			now := e.eng.Now()
			if now > s.lastComplete {
				s.lastComplete = now
			}
			s.lat.Record(int64(now - w.req.arrival))
			w.state = swIdle
		}
	}
}

// await makes the worker wait for every line it has in flight, then
// continue in state landed.
func (w *serverWorker) await(landed workerState) {
	w.waited = 0
	w.landed = landed
	w.state = swAwait
}
