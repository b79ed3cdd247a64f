package cluster

import (
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// fanOut calls fn for every instance, spread across shards (at least 1)
// goroutines: shards-1 helpers plus the caller claim instances from an
// atomic cursor — work stealing, so one slow engine doesn't idle the
// others behind a static partition — and a WaitGroup joins them before
// fanOut returns. It runs only a prerouted arrival phase, the one fleet
// phase with enough work per instance to pay for the join.
//
// fn must touch only its own instance. Every engine mutation happens
// before the helper's wg.Done (Done → Wait), so after fanOut returns
// only the caller touches the instances again. fanOut thereby moves
// engines between OS threads, which Engine documents as safe when the
// caller orders the calls.
func fanOut(insts []*instance, shards int, fn func(i int, in *instance)) {
	var cursor atomic.Int64
	work := func() {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= len(insts) {
				return
			}
			fn(i, insts[i])
		}
	}
	var wg sync.WaitGroup
	wg.Add(shards - 1)
	for w := 1; w < shards; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// runBatch replays one instance's slice of the arrival timeline,
// reproducing exactly the schedule the serial lockstep driver gives
// that instance: every window boundary at or before an arrival closes
// (with the engine advanced to the boundary first) before the arrival
// is submitted at its own timestamp, and after the last owned arrival
// the engine still closes every boundary up to the fleet-wide last
// arrival time, because the serial driver closes windows on all
// instances whichever one an arrival targets. Advances to other
// instances' arrival times are skipped: this engine has no events
// there (its next activity is bounded by its own arrivals and window
// boundaries), so those advances were pure clock bumps — unobservable.
func runBatch(in *instance, batch []arrival, window, last sim.Time) {
	eng := in.env.Engine()
	next := window
	for _, a := range batch {
		for next <= a.at {
			eng.RunUntil(next)
			in.closeWindow()
			next += window
		}
		eng.RunUntil(a.at)
		in.srv.Submit(a.key)
	}
	for next <= last {
		eng.RunUntil(next)
		in.closeWindow()
		next += window
	}
	// Land exactly where the serial driver leaves every engine: at the
	// fleet-wide last arrival time with all events up to it executed.
	// Without this, events in (final boundary, last] would execute
	// after Server.Close instead of before — same results, but a
	// different idle-wake event count, and the determinism contract is
	// engine-state-exact, not merely results-exact.
	eng.RunUntil(last)
}
