//go:build go1.23

// Package coro is the simulator's one coroutine type, shared by
// sim.Proc and uthread.Thread: a body running on an iter.Pull runtime
// coroutine that hands a value to its driver at every Yield and that
// the driver can unwind while it is parked. Control passes directly
// between the two goroutines without the scheduler's run queues, and
// exactly one of them runs at any instant. A panic in the body unwinds
// to the caller of Next.
package coro

import (
	"errors"
	"iter"
)

// Coro runs body(arg) as a coroutine that yields values of type V. The
// zero Coro is unstarted. It is embedded by value in its owner and must
// not be copied once started.
type Coro[A, V any] struct {
	body  func(A)
	arg   A
	next  func() (V, bool) // driver -> body: run to the next Yield (false once the body returned)
	stop  func()           // unwinds a parked body
	yield func(V) bool     // body -> driver: hand over a value (false once stopped)
}

// errStopped is the panic Yield raises in a body that Stop ended; run
// recovers it.
var errStopped = errors.New("coro: stopped")

// Start creates the coroutine for body(arg), which first runs at the
// next Next. Taking the body and its argument, rather than a closure
// binding them, keeps Start to iter.Pull's own allocations.
func (c *Coro[A, V]) Start(body func(A), arg A) {
	c.body, c.arg = body, arg
	c.next, c.stop = iter.Pull(c.run)
}

// run is the sequence function; returning from it ends the sequence.
func (c *Coro[A, V]) run(yield func(V) bool) {
	c.yield = yield
	defer func() {
		if r := recover(); r != nil && r != errStopped {
			panic(r)
		}
	}()
	c.body(c.arg)
}

// Next runs the body until it yields or returns, and reports false once
// it has returned; the Coro then holds nothing. Driver side only, and
// never after Stop.
func (c *Coro[A, V]) Next() (V, bool) {
	v, ok := c.next()
	if !ok {
		*c = Coro[A, V]{}
	}
	return v, ok
}

// Yield hands v to the driver and parks the body until the next Next.
// If the driver calls Stop instead, Yield unwinds the body, running its
// deferred functions. Body side only.
func (c *Coro[A, V]) Yield(v V) {
	if !c.yield(v) {
		panic(errStopped)
	}
}

// Stop unwinds a parked body and leaves the Coro holding nothing. It is
// a no-op on an unstarted or finished Coro. Driver side only.
func (c *Coro[A, V]) Stop() {
	stop := c.stop
	*c = Coro[A, V]{}
	if stop != nil {
		stop()
	}
}
