package sim

import (
	"math/rand"
	"testing"
)

// Engine microbenchmarks. Every figure cell of the reproduction is
// millions of engine events, so events/sec here is the throughput
// ceiling for the whole sweep pipeline; the benchgate CI job compares
// these numbers against the committed BENCH_engine.json and fails the
// build on a >25% events/sec regression (see cmd/benchgate).
//
// Each benchmark reports events/sec as a custom metric so the gate can
// compare a machine-independent-ish rate rather than raw ns/op.

// BenchmarkSchedule measures the raw At+dispatch path: a self-limiting
// event cascade where every event schedules two more at staggered
// future times, exercising heap push/pop with no process machinery.
func BenchmarkSchedule(b *testing.B) {
	const events = 1 << 14
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		n := 0
		var fan func()
		fan = func() {
			if n >= events {
				return
			}
			n += 2
			e.After(3*Nanosecond, fan)
			e.After(7*Nanosecond, fan)
		}
		e.At(0, func() { n++; fan() })
		e.Run()
		if e.Executed() < events {
			b.Fatalf("executed %d events, want >= %d", e.Executed(), events)
		}
		e.Recycle()
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// scheduleMix is the push-delay mix of the quick paper sweep (15.85M
// timed pushes): each row is a delay range [lo, hi) and its share of
// pushes in tenths of a percent.
var scheduleMix = []struct {
	lo, hi   Time
	permille int
}{
	{1, 1020, 70}, // under 1.02 ns
	{8200, 16400, 75},
	{16400, 32800, 105},
	{32800, 65500, 79},
	{65500, 131000, 239},
	{131000, 262000, 64},
	{262000, 524000, 250},
	{520000, 1050000, 40},
	{1050000, 2100000, 64},
	{2100000, 4200000, 12},
	{4200000, 8400000, 3},
}

// mixDelays draws n delays (n a power of two) from scheduleMix with a
// fixed seed.
func mixDelays(n int) []Time {
	total := 0
	for _, m := range scheduleMix {
		total += m.permille
	}
	rng := rand.New(rand.NewSource(1))
	out := make([]Time, n)
	for i := range out {
		r := rng.Intn(total)
		for _, m := range scheduleMix {
			if r < m.permille {
				out[i] = m.lo + Time(rng.Int63n(int64(m.hi-m.lo)))
				break
			}
			r -= m.permille
		}
	}
	return out
}

// BenchmarkScheduleMix measures the At+dispatch path under the quick
// sweep's delay mix: 42 events stay pending (the sweep's mean at a
// pop), and each one that runs schedules the next at a delay drawn
// from scheduleMix. BenchmarkSchedule's two short delays flatter any
// bucketed queue; this mix spans nanoseconds to several microseconds.
func BenchmarkScheduleMix(b *testing.B) {
	const (
		pending = 42
		events  = 1 << 14
	)
	delays := mixDelays(1 << 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		n := 0
		var next func()
		next = func() {
			if n < events {
				e.After(delays[n&(len(delays)-1)], next)
				n++
			}
		}
		for range pending {
			next()
		}
		e.Run()
		if e.Executed() != events {
			b.Fatalf("executed %d events, want %d", e.Executed(), events)
		}
		e.Recycle()
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkNowQueue measures same-timestamp scheduling: chains of
// events scheduled at the current time, the Gate.Fire/Engine.Go
// pattern that the now-queue serves without touching the heap.
func BenchmarkNowQueue(b *testing.B) {
	const events = 1 << 14
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		n := 0
		var chain func()
		chain = func() {
			if n < events {
				n++
				e.At(e.Now(), chain)
			}
		}
		// Hop time forward between bursts so the engine alternates heap
		// pops with now-queue drains, as real runs do.
		for burst := 0; burst < 16; burst++ {
			e.After(Time(burst)*Microsecond, chain)
		}
		e.Run()
		if e.Executed() < events {
			b.Fatalf("executed %d events, want >= %d", e.Executed(), events)
		}
		e.Recycle()
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkGateFanout measures the gate path of prefetch-style runs:
// many waiters parked on one gate, released at once. The waiter
// callback is hoisted out of the loops: a literal inside would cost
// one closure allocation per OnFire call (rounds × waiters ≈ 4096
// allocs/op, formerly drowning the engine's own footprint in
// benchmark-harness noise), which is also how real callers behave —
// core code registers a handful of long-lived callbacks, not a fresh
// closure per waiter. What remains measured is the engine: gate
// allocation and the pooled waiter-slice path.
func BenchmarkGateFanout(b *testing.B) {
	const (
		rounds  = 64
		waiters = 64
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		done := 0
		release := func() { done++ }
		for r := 0; r < rounds; r++ {
			g := e.NewGate()
			for w := 0; w < waiters; w++ {
				g.OnFire(release)
			}
			e.At(Time(r+1)*Microsecond, g.Fire)
		}
		e.Run()
		if done != rounds*waiters {
			b.Fatalf("released %d waiters, want %d", done, rounds*waiters)
		}
		e.Recycle()
	}
	b.ReportMetric(float64(rounds*waiters)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkProcSwitch measures the strict-handoff process machinery:
// a set of processes repeatedly sleeping, i.e. the executor-core
// pattern of every threaded mechanism.
func BenchmarkProcSwitch(b *testing.B) {
	const (
		procs  = 8
		sleeps = 256
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for pi := 0; pi < procs; pi++ {
			e.Go("core", func(p *Proc) {
				for s := 0; s < sleeps; s++ {
					p.Sleep(Nanosecond)
				}
			})
		}
		if _, err := e.RunChecked(); err != nil {
			b.Fatal(err)
		}
		e.Recycle()
	}
	b.ReportMetric(float64(procs*sleeps)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkWaitTimeout measures the two-armed wait of the polling
// mechanisms (software/kernel queues under fault injection): a gate
// race against a timer, alternating winners.
func BenchmarkWaitTimeout(b *testing.B) {
	const waits = 256
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		e.Go("poller", func(p *Proc) {
			for w := 0; w < waits; w++ {
				g := e.NewGate()
				if w%2 == 0 {
					e.After(Nanosecond, g.Fire)
					p.WaitTimeout(g, 2*Nanosecond)
				} else {
					p.WaitTimeout(g, Nanosecond)
					e.After(0, g.Fire) // fire the stale gate; must not double-resume
				}
			}
		})
		if _, err := e.RunChecked(); err != nil {
			b.Fatal(err)
		}
		e.Recycle()
	}
	b.ReportMetric(float64(waits)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}
