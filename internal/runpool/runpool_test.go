package runpool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/uthread"
)

// TestResultsInSubmissionOrder submits jobs across many workers and
// checks that collecting results in program order reconstructs the
// deterministic sequence — the property the sweep harness relies on.
func TestResultsInSubmissionOrder(t *testing.T) {
	p := New(context.Background(), 8, 4)
	defer p.Close()

	const n = 100
	tasks := make([]*Task[int], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = Submit(p, func() (int, error) { return i * i, nil })
	}
	for i, task := range tasks {
		got, err := task.Wait()
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if got != i*i {
			t.Fatalf("task %d = %d, want %d", i, got, i*i)
		}
	}
}

// TestPanicIsolation: a panicking job fails its own task with a
// decorated error; other jobs and the pool survive.
func TestPanicIsolation(t *testing.T) {
	p := New(context.Background(), 2, 0)
	defer p.Close()

	bad := Submit(p, func() (int, error) { panic("cell exploded") })
	good := Submit(p, func() (int, error) { return 7, nil })

	if _, err := bad.Wait(); err == nil || !strings.Contains(err.Error(), "cell exploded") {
		t.Fatalf("panicking job error = %v, want panic message", err)
	}
	if v, err := good.Wait(); err != nil || v != 7 {
		t.Fatalf("surviving job = (%d, %v), want (7, nil)", v, err)
	}
}

// TestSimulationPanicIsolation: a cell whose simulated process panics
// inside a user-level thread's step fails its own task instead of
// crashing the process. The panic starts on the process's coroutine,
// so this holds only because it unwinds to the goroutine that called
// Engine.Run.
func TestSimulationPanicIsolation(t *testing.T) {
	p := New(context.Background(), 1, 0)
	defer p.Close()

	bad := Submit(p, func() (int, error) {
		e := sim.NewEngine()
		accessed := false
		th := uthread.NewStep(0, func([][]byte) (uthread.Request, bool) {
			if accessed {
				panic("cell exploded in a thread")
			}
			accessed = true
			return uthread.Request{Kind: uthread.KindAccess, Addrs: []uint64{0x40}}, true
		})
		e.Go("core0", func(p *sim.Proc) {
			for r := th.Start(); r.Kind != uthread.KindDone; r = th.Resume(make([][]byte, len(r.Addrs))) {
				p.Sleep(sim.Microsecond)
			}
		})
		_, err := e.RunChecked()
		return 0, err
	})
	if _, err := bad.Wait(); err == nil || !strings.Contains(err.Error(), "cell exploded in a thread") {
		t.Fatalf("panicking cell error = %v, want the thread's panic message", err)
	}
	good := Submit(p, func() (int, error) { return 7, nil })
	if v, err := good.Wait(); err != nil || v != 7 {
		t.Fatalf("job after the panicking cell = (%d, %v), want (7, nil)", v, err)
	}
}

// TestErrorPassthrough: job errors reach Wait unchanged.
func TestErrorPassthrough(t *testing.T) {
	p := New(context.Background(), 1, 0)
	defer p.Close()

	sentinel := errors.New("boom")
	task := Submit(p, func() (int, error) { return 0, sentinel })
	if _, err := task.Wait(); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
}

// TestCancellation: after the context is cancelled, unrun jobs fail
// fast with the context error instead of executing.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := New(ctx, 1, 10)
	defer p.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	var ran atomic.Int32
	blocker := Submit(p, func() (int, error) { close(started); <-release; return 0, nil })
	<-started // the single worker is now busy; later jobs stay queued
	queued := make([]*Task[int], 5)
	for i := range queued {
		queued[i] = Submit(p, func() (int, error) { ran.Add(1); return 0, nil })
	}

	cancel()
	close(release)
	if _, err := blocker.Wait(); err != nil {
		t.Fatalf("in-flight job failed: %v", err)
	}
	for i, task := range queued {
		if _, err := task.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("queued task %d err = %v, want context.Canceled", i, err)
		}
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d cancelled jobs ran", got)
	}
}

// TestSubmitUnblocksOnCancel: a Submit blocked on a full queue returns
// (with a failed task) when the context is cancelled.
func TestSubmitUnblocksOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := New(ctx, 1, 0)
	defer p.Close()

	release := make(chan struct{})
	Submit(p, func() (int, error) { <-release; return 0, nil })

	done := make(chan *Task[int])
	go func() {
		// The worker is busy and the queue has no slots, so this blocks
		// until cancellation.
		done <- Submit(p, func() (int, error) { return 1, nil })
	}()

	time.Sleep(10 * time.Millisecond) // let the goroutine block
	cancel()
	select {
	case task := <-done:
		if _, err := task.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit did not unblock on cancellation")
	}
	close(release)
}

// TestCloseWaitsForInFlight: Close returns only after started jobs
// complete.
func TestCloseWaitsForInFlight(t *testing.T) {
	p := New(context.Background(), 4, 4)
	var finished atomic.Int32
	const n = 16
	tasks := make([]*Task[int], n)
	for i := 0; i < n; i++ {
		tasks[i] = Submit(p, func() (int, error) {
			time.Sleep(time.Millisecond)
			finished.Add(1)
			return 0, nil
		})
	}
	p.Close()
	if got := finished.Load(); got != n {
		t.Fatalf("Close returned with %d/%d jobs finished", got, n)
	}
	for _, task := range tasks {
		if _, err := task.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestManyWorkersManyJobs is a small stress shape for the race
// detector.
func TestManyWorkersManyJobs(t *testing.T) {
	p := New(context.Background(), 16, 8)
	defer p.Close()
	var sum atomic.Int64
	tasks := make([]*Task[int], 500)
	for i := range tasks {
		i := i
		tasks[i] = Submit(p, func() (int, error) {
			sum.Add(int64(i))
			return i, nil
		})
	}
	for i, task := range tasks {
		if v, err := task.Wait(); err != nil || v != i {
			t.Fatalf("task %d = (%d, %v)", i, v, err)
		}
	}
	if want := int64(500 * 499 / 2); sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func ExamplePool() {
	p := New(context.Background(), 4, 2)
	defer p.Close()
	a := Submit(p, func() (string, error) { return "first", nil })
	b := Submit(p, func() (string, error) { return "second", nil })
	x, _ := a.Wait()
	y, _ := b.Wait()
	fmt.Println(x, y)
	// Output: first second
}
