//go:build go1.23

// Package uthread is the user-level threading library of the paper's
// support software (§IV-B): the heavily optimized GNU-Pth derivative
// whose context switch costs 20-50 ns. Application code keeps the
// standard synchronous threading model — a thread calls Access (the
// paper's dev_access) and simply receives the data — while the
// mechanism-specific executor underneath overlaps accesses from many
// threads.
//
// The synchronous model is kept as the request sequence each thread
// makes, not as a Go stack. A Thread is a step function (Step): each
// Start or Resume from its executor runs it once, from the answer to
// its previous request up to its next Request; a step reporting that
// it is done is KindDone. The executor charges the simulated context
// switch; no host context switch happens, so a thread holds no
// goroutine and an abandoned one leaves nothing parked. Exactly one of
// {executor, step} runs at a time, so simulations remain
// deterministic, and a panic in a step unwinds to the caller of Start
// or Resume. Timing is entirely the executor's business; this package
// only transports control and data.
//
// New and API are the older coroutine form, a body on a runtime
// coroutine (coro.Coro) that calls Access and blocks. Nothing on the
// simulation path uses it; it is kept only while the bench module's
// uthread.resume_ns probe prices its round trip.
package uthread

import (
	"fmt"

	"repro/internal/coro"
)

// Kind discriminates the requests a thread body can make.
type Kind int

const (
	// KindWork asks the executor to retire Instr dependent work
	// instructions.
	KindWork Kind = iota
	// KindAccess asks for a synchronous batch of device cache-line
	// reads; the thread resumes when all lines are available.
	KindAccess
	// KindWrite posts a batch of device cache-line writes. Writes are
	// fire-and-forget — "writes do not have return values, are often
	// off the critical path ... their latency can be more easily
	// hidden" (§VII) — so the thread continues as soon as the stores
	// issue, without a context switch.
	KindWrite
	// KindDone reports that the thread body returned.
	KindDone
)

// String returns the request kind's name.
func (k Kind) String() string {
	switch k {
	case KindWork:
		return "work"
	case KindAccess:
		return "access"
	case KindWrite:
		return "write"
	case KindDone:
		return "done"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Request is what a thread hands to its executor when it blocks.
type Request struct {
	Kind  Kind
	Instr int      // KindWork: dependent work instructions to retire
	Addrs []uint64 // KindAccess: cache-line addresses, batched before one switch
}

// Step is a thread's code in step form. Each call receives the lines
// answering the thread's previous request — one per address of an
// access batch, nil on the first call and after work or posted writes
// — and returns the thread's next request, or false once the thread is
// done. The lines stay valid until the thread's next access request. A
// step issues no empty batch and no work of zero or fewer
// instructions, and its request's Addrs may be a buffer the step
// reuses: executors do not keep it past the next call.
type Step func(data [][]byte) (Request, bool)

// Thread is one user-level thread.
type Thread struct {
	id       int
	step     Step
	unwind   func() // coroutine form only: ends a parked body
	started  bool
	finished bool
	last     Request // most recent request, for Resume payload checks
}

// NewStep creates a thread whose code is step; nothing runs until the
// executor calls Start.
func NewStep(id int, step Step) *Thread {
	return &Thread{id: id, step: step}
}

// New creates a thread in coroutine form: body runs on a runtime
// coroutine, blocking in the API calls, and does not start executing
// until the executor calls Start. Each request costs two host
// coroutine switches; only the bench module's uthread.resume_ns probe
// still uses it, and it goes when that probe moves to NewStep.
func New(id int, body func(*API)) *Thread {
	a := &API{}
	step := func(data [][]byte) (Request, bool) {
		if body != nil { // the first step starts the body
			a.co.Start(body, a)
			body = nil
		}
		a.data = data
		return a.co.Next()
	}
	return &Thread{id: id, step: step, unwind: a.co.Stop}
}

// ID returns the thread's identifier.
func (t *Thread) ID() int { return t.id }

// Finished reports whether the thread is done or stopped.
func (t *Thread) Finished() bool { return t.finished }

// Start runs the thread up to its first request.
func (t *Thread) Start() Request {
	if t.started {
		panic(fmt.Sprintf("uthread: thread %d started twice", t.id))
	}
	t.started = true
	return t.advance(nil)
}

// Resume delivers the data for the previous request (nil for KindWork
// and KindWrite) and runs the thread to its next request. Resuming a
// finished thread, answering an access batch with the wrong number of
// lines (the step would index out of range or silently read a
// sibling's data), or answering any other request with lines (a step
// may tell an access's answer by its lines being non-nil), panics.
func (t *Thread) Resume(data [][]byte) Request {
	if !t.started {
		panic(fmt.Sprintf("uthread: thread %d resumed before start", t.id))
	}
	if t.finished {
		panic(fmt.Sprintf("uthread: thread %d resumed after done", t.id))
	}
	if t.last.Kind == KindAccess && len(data) != len(t.last.Addrs) {
		panic(fmt.Sprintf("uthread: thread %d access batch of %d addresses resumed with %d lines",
			t.id, len(t.last.Addrs), len(data)))
	}
	if t.last.Kind != KindAccess && data != nil {
		panic(fmt.Sprintf("uthread: thread %d %v request resumed with %d lines", t.id, t.last.Kind, len(data)))
	}
	return t.advance(data)
}

func (t *Thread) advance(data [][]byte) Request {
	r, ok := t.step(data)
	if !ok {
		r = Request{Kind: KindDone}
		t.Stop() // the thread is done; drop it
	}
	t.last = r
	return r
}

// Stop ends an unfinished thread without resuming it: its step never
// runs again (a coroutine-form body unwinds from its pending request,
// running its deferred functions), and an unstarted thread never runs
// at all. The thread is Finished afterwards. Stopping a finished thread
// is a no-op. Call it from the executor's side, never from the
// thread's own code.
func (t *Thread) Stop() {
	t.finished = true
	t.step = nil
	if unwind := t.unwind; unwind != nil {
		t.unwind = nil
		unwind()
	}
}

// API is the interface a coroutine-form body (New) programs against,
// and the state of its coroutine. It mirrors the paper's library:
// synchronous accesses, minimal source changes ("replace pointer
// dereferences with calls to dev_access", §IV-B). Like New, it is kept
// only for the bench module's uthread.resume_ns probe.
type API struct {
	co   coro.Coro[*API, Request]
	data [][]byte // Resume's answer to the request just yielded
}

// request hands r to the executor and returns the data Resume delivers.
func (a *API) request(r Request) [][]byte {
	a.co.Yield(r)
	return a.data
}

// Work retires n dependent work instructions (the microbenchmark's
// IPC-1.4 arithmetic block). Zero or negative counts are no-ops.
func (a *API) Work(n int) {
	if n <= 0 {
		return
	}
	a.request(Request{Kind: KindWork, Instr: n})
}

// Access performs one synchronous device cache-line read, returning the
// 64-byte line. It is the paper's dev_access(uint64*).
func (a *API) Access(addr uint64) []byte {
	return a.AccessBatch([]uint64{addr})[0]
}

// AccessBatch performs several independent reads with a single context
// switch — the batching used to express memory-level parallelism
// (§V-B, Impact of MLP: "a single context switch after issuing multiple
// prefetches"). It returns one line per address, in order. The
// executor reuses the returned slice for the thread's next batch, so it
// is valid until the next AccessBatch (or Access) call; Work and Write
// calls leave it alone.
func (a *API) AccessBatch(addrs []uint64) [][]byte {
	if len(addrs) == 0 {
		return nil
	}
	return a.request(Request{Kind: KindAccess, Addrs: addrs})
}

// Write posts one fire-and-forget device cache-line write; the thread
// continues immediately (no context switch, §VII).
func (a *API) Write(addr uint64) { a.WriteBatch([]uint64{addr}) }

// WriteBatch posts several fire-and-forget writes.
func (a *API) WriteBatch(addrs []uint64) {
	if len(addrs) == 0 {
		return
	}
	a.request(Request{Kind: KindWrite, Addrs: addrs})
}
