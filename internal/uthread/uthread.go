//go:build go1.23

// Package uthread is the user-level threading library of the paper's
// support software (§IV-B): the heavily optimized GNU-Pth derivative
// whose context switch costs 20-50 ns. Application code keeps the
// standard synchronous threading model — a thread calls Access (the
// paper's dev_access) and simply receives the data — while the
// mechanism-specific executor underneath overlaps accesses from many
// threads.
//
// A Thread is a runtime coroutine (coro.Coro): its body executes only
// between Start/Resume calls from its executor, yielding a Request each
// time it needs work or device data; the end of the body is KindDone.
// Exactly one of {executor, thread body} runs at a time, so simulations
// remain deterministic, and a panic in the body unwinds to the caller of
// Start or Resume. Timing is entirely the executor's business; this
// package only transports control and data.
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

// Thread is one user-level thread.
type Thread struct {
	id       int
	body     func(*API)
	started  bool
	finished bool
	last     Request // most recent request, for Resume payload checks

	co   coro.Coro[*API, Request]
	data [][]byte // Resume's answer to the request just yielded
}

// New creates a thread that will run body; the body does not start
// executing until the executor calls Start.
func New(id int, body func(*API)) *Thread {
	return &Thread{id: id, body: body}
}

// ID returns the thread's identifier.
func (t *Thread) ID() int { return t.id }

// Finished reports whether the body has returned.
func (t *Thread) Finished() bool { return t.finished }

// Start launches the body and runs it up to its first request.
func (t *Thread) Start() Request {
	if t.started {
		panic(fmt.Sprintf("uthread: thread %d started twice", t.id))
	}
	t.started = true
	t.co.Start(t.body, &API{t: t})
	return t.step()
}

// Resume delivers the data for the previous request (nil for KindWork)
// and runs the body to its next request. Resuming a finished thread, or
// answering an access batch with the wrong number of lines (the body
// would index out of range or silently read a sibling's data), panics.
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
	t.data = data
	return t.step()
}

func (t *Thread) step() Request {
	r, ok := t.co.Next()
	if !ok {
		r = Request{Kind: KindDone}
		t.Stop() // the body returned; drop it
	}
	t.last = r
	return r
}

// Stop ends an unfinished thread without resuming it: a started body
// unwinds from its pending request, running its deferred functions,
// and an unstarted one never runs. The thread is Finished afterwards.
// Stopping a finished thread is a no-op. Call it from the executor's
// side, never from the thread's own body.
func (t *Thread) Stop() {
	t.finished = true
	t.body, t.data = nil, nil
	t.co.Stop()
}

// request hands r to the executor and returns the data Resume delivers.
func (t *Thread) request(r Request) [][]byte {
	t.co.Yield(r)
	return t.data
}

// API is the interface the thread body programs against. It mirrors the
// paper's library: synchronous accesses, minimal source changes
// ("replace pointer dereferences with calls to dev_access", §IV-B).
type API struct {
	t *Thread
}

// Work retires n dependent work instructions (the microbenchmark's
// IPC-1.4 arithmetic block). Zero or negative counts are no-ops.
func (a *API) Work(n int) {
	if n <= 0 {
		return
	}
	a.t.request(Request{Kind: KindWork, Instr: n})
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
	return a.t.request(Request{Kind: KindAccess, Addrs: addrs})
}

// Write posts one fire-and-forget device cache-line write; the thread
// continues immediately (no context switch, §VII).
func (a *API) Write(addr uint64) { a.WriteBatch([]uint64{addr}) }

// WriteBatch posts several fire-and-forget writes.
func (a *API) WriteBatch(addrs []uint64) {
	if len(addrs) == 0 {
		return
	}
	a.t.request(Request{Kind: KindWrite, Addrs: addrs})
}
