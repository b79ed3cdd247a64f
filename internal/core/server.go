package core

import (
	"fmt"

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

type serverWorker struct {
	id    int
	core  int
	gate  *sim.Gate
	lines []*lineRead // the request's reads in flight, reused across requests
}

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
	for i := 0; i < sc.Workers; i++ {
		w := &serverWorker{id: i, core: i % e.cfg.Cores}
		s.workers = append(s.workers, w)
		s.e.eng.Go(fmt.Sprintf("srvworker%d", i), func(p *sim.Proc) {
			s.workerLoop(p, w)
		})
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

func (s *Server) wakeOne() {
	if len(s.idle) == 0 {
		return
	}
	w := s.idle[len(s.idle)-1]
	s.idle = s.idle[:len(s.idle)-1]
	w.gate.Fire()
}

func (s *Server) workerLoop(p *sim.Proc, w *serverWorker) {
	for {
		for len(s.queue) == 0 {
			if s.closed {
				return
			}
			w.gate = s.e.eng.NewGate()
			s.idle = append(s.idle, w)
			p.Wait(w.gate)
		}
		req := s.queue[0]
		s.queue = s.queue[1:]
		s.serve(p, w, req)
		s.completed++
		s.outstanding--
		if now := p.Now(); now > s.lastComplete {
			s.lastComplete = now
		}
		s.lat.Record(int64(p.Now() - req.arrival))
	}
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

// serve executes one request under the server's mechanism. Every path
// charges one context switch at dispatch (the worker context is
// scheduled onto the core) and runs the post-fetch work with the core
// slot held, so mechanisms differ only in how they fetch.
func (s *Server) serve(p *sim.Proc, w *serverWorker, req serverReq) {
	e := s.e
	lines := s.lines(req.key)
	slot := s.slot[w.core]
	p.AcquireToken(slot)
	p.Sleep(e.cfg.CtxSwitch)

	switch s.mech {
	case "prefetch":
		// Listing 1 shape: issue a non-binding prefetch per line (LFB
		// entry, then a chip-level queue slot on the way out), yield the
		// core while the lines are in flight, and pay a context switch
		// when the demand loads resume.
		for l := 0; l < lines; l++ {
			addr := s.addrFor(w.core, req.key, l)
			p.AcquireToken(e.lfb[w.core])
			p.Sleep(e.cfg.PrefetchIssue)
			ln := e.newLine(w.core, addr)
			ln.chip, ln.lfb = e.chip, e.lfb[w.core]
			w.lines = append(w.lines, ln)
			e.chip.OnAcquire(ln.acquiredFn)
		}
		slot.Release()
		s.await(p, w)
		p.AcquireToken(slot)
		p.Sleep(e.cfg.CtxSwitch)
	case "swqueue":
		// §III-A shape: the batch + per-descriptor queue management cost
		// is paid on the core, the descriptors then travel by DMA —
		// no LFB entries, no chip-queue slots — and the worker yields
		// until the batch completes.
		p.Sleep(e.cfg.SWQBatchOverhead)
		for l := 0; l < lines; l++ {
			addr := s.addrFor(w.core, req.key, l)
			p.Sleep(e.cfg.SWQPerAccessOverhead)
			ln := e.newLine(w.core, addr)
			w.lines = append(w.lines, ln)
			ln.read()
		}
		slot.Release()
		s.await(p, w)
		p.AcquireToken(slot)
		p.Sleep(e.cfg.CompletionPoll)
		p.Sleep(e.cfg.CtxSwitch)
	case "ondemand":
		// Blocking demand loads: the core slot is held for every full
		// device round trip, one line at a time.
		for l := 0; l < lines; l++ {
			addr := s.addrFor(w.core, req.key, l)
			ln := e.newLine(w.core, addr)
			ln.chip = e.chip
			w.lines = append(w.lines, ln)
			e.chip.OnAcquire(ln.acquiredFn)
			s.await(p, w)
		}
	}

	if s.workInstr > 0 {
		p.Sleep(e.cfg.WorkTime(s.workInstr))
	}
	slot.Release()
}

// await blocks the worker until every line it has in flight has
// landed, then recycles the lines.
func (s *Server) await(p *sim.Proc, w *serverWorker) {
	for _, ln := range w.lines {
		p.Wait(&ln.g)
	}
	for i, ln := range w.lines {
		s.e.consumed(ln)
		w.lines[i] = nil
	}
	w.lines = w.lines[:0]
}
