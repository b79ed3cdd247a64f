//go:build go1.23

package coro

import "testing"

// count yields 0..n-1 to its driver.
func count(c *Coro[int, int]) func(int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			c.Yield(i)
		}
	}
}

func TestNextYieldsInOrderThenEnds(t *testing.T) {
	var c Coro[int, int]
	c.Start(count(&c), 3)
	for want := 0; want < 3; want++ {
		if got, ok := c.Next(); !ok || got != want {
			t.Fatalf("Next = %d, %v; want %d, true", got, ok, want)
		}
	}
	if _, ok := c.Next(); ok {
		t.Fatal("Next after the body returned reported true")
	}
	c.Stop() // a finished coroutine: no-op
}

func TestStopUnwindsParkedBody(t *testing.T) {
	var c Coro[int, int]
	unwound, after := false, false
	c.Start(func(int) {
		defer func() { unwound = true }()
		c.Yield(1)
		after = true
	}, 0)
	c.Next()
	c.Stop()
	if !unwound || after {
		t.Fatalf("Stop: deferred ran %v, body continued %v; want true, false", unwound, after)
	}
	c.Stop() // already stopped: no-op
}

func TestStopBeforeStartIsNoop(t *testing.T) {
	var c Coro[int, int]
	c.Stop()
}

func TestBodyPanicReachesNext(t *testing.T) {
	var c Coro[int, int]
	c.Start(func(int) { panic("boom") }, 0)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the body's panic value", r)
		}
	}()
	c.Next()
	t.Fatal("Next returned after the body panicked")
}
