// Package cpu provides the host-core timing models.
//
// Two execution regimes matter in the paper:
//
//   - On-demand execution (unmodified software): the out-of-order core
//     overlaps loads with whatever independent work its instruction
//     window can reach. This regime is modeled analytically by the
//     interval model in this file and produces both Fig 2 and every
//     DRAM baseline that results are normalized to.
//   - Threaded execution (prefetch or software-queue mechanisms): the
//     core cycles through user-level threads; that model lives in
//     internal/core because it embodies the paper's contribution.
//
// The interval model captures exactly the three properties the paper
// attributes to on-demand execution (§V-A): dependent work serializes
// behind its load, the instruction window (~100-200 entries) bounds how
// far ahead independent loads can issue, and the per-core LFBs bound how
// many of those loads can be in flight.
package cpu

import (
	"slices"

	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
)

// IterSpec is one iteration of the demand-access loop: Reads independent
// cache-line loads followed by WorkInstr work instructions that depend
// on all of them (the microbenchmark's structure, §IV-C, which the
// application benchmarks share after their work is replaced by the
// benign loop).
//
// Dependent marks a serial dependence chain: the iteration's loads use
// addresses produced by the previous iteration's loads (pointer
// chasing), so they cannot issue until those complete, whatever the
// window would otherwise allow — the pattern the paper's introduction
// singles out as defeating out-of-order latency hiding.
//
// Repeat is how many consecutive identical iterations the spec stands
// for; zero counts as one, so a literal without it is one iteration.
type IterSpec struct {
	Reads     int
	WorkInstr int
	Dependent bool
	Repeat    int
}

// Iterations returns how many iterations the spec stands for.
func (it IterSpec) Iterations() int { return max(it.Repeat, 1) }

// Iterations returns how many iterations a trace stands for.
func Iterations(trace []IterSpec) int {
	n := 0
	for _, it := range trace {
		n += it.Iterations()
	}
	return n
}

// UniformTrace returns n identical iterations as one repeated spec; an
// n of zero or less is the empty trace.
func UniformTrace(n, reads, workInstr int) []IterSpec {
	if n <= 0 {
		return nil
	}
	return []IterSpec{{Reads: reads, WorkInstr: workInstr, Repeat: n}}
}

// OnDemandResult summarizes an interval-model run.
type OnDemandResult struct {
	Elapsed   sim.Time
	Accesses  int
	WorkInstr int64

	// Recovery accounting, populated only by fault-aware runs.
	Retries   int // re-issues after an access timeout
	Timeouts  int // timeouts that fired
	Abandoned int // accesses given up after the retry budget

	// Latencies holds the per-access observed latencies (including any
	// recovery) in a bounded log-bucketed histogram of picosecond
	// values.
	Latencies *stats.Histogram
}

// LoadObserver receives one completed load's lifecycle: its issue and
// completion times plus the recovery accounting of its latency draw.
// Observers must be pure recorders — the interval model's timing does
// not depend on them.
type LoadObserver func(issue, complete sim.Time, out fault.AccessOutcome)

// iterRecord is the retirement bookkeeping for one completed iteration,
// kept so later iterations can ask "when had the core retired x
// instructions?" (the window-occupancy constraint).
type iterRecord struct {
	base      int64 // instructions retired before this iteration
	reads     int
	workInstr int
	workStart sim.Time // loads retire here; work ramps from here
	workEnd   sim.Time
}

// RunOnDemand executes a trace of demand-access iterations on one core
// against a memory with the given load latency and outstanding-access
// limit, and returns the timing.
//
// Model: the loads of iteration j dispatch once (a) the youngest of them
// fits in the instruction window — i.e. all but the window-size most
// recent older instructions have retired — and (b) enough outstanding-
// access slots (LFBs, and for devices the chip-level queue) are free.
// All loads of an iteration issue together (they are adjacent and
// independent); the i-th completes after latency + i*issueGap (the
// memory-side serialization of simultaneous accesses); loads retire when
// prior work has drained; the iteration's work then occupies the core
// for WorkInstr/WorkIPC cycles.
func RunOnDemand(cfg platform.Config, trace []IterSpec, latency sim.Time, maxOutstanding int, issueGap sim.Time) OnDemandResult {
	return runOnDemand(cfg, trace, latency, maxOutstanding, issueGap, nil, nil)
}

// runOnDemand is RunOnDemand with an optional per-load fault draw and an
// optional per-load observer: when draw is non-nil each load's latency
// (including any timeout/retry recovery) comes from one draw, in issue
// order, so fault-aware runs stay deterministic; when observe is non-nil
// it is called once per load with the load's issue/completion times (the
// trace layer's access spans for the analytic mechanism).
func runOnDemand(cfg platform.Config, trace []IterSpec, latency sim.Time, maxOutstanding int, issueGap sim.Time, draw func() fault.AccessOutcome, observe LoadObserver) OnDemandResult {
	if maxOutstanding > cfg.LFBPerCore {
		// A single core can never have more misses in flight than LFBs.
		maxOutstanding = cfg.LFBPerCore
	}
	res := OnDemandResult{}
	if len(trace) == 0 {
		return res
	}
	var work platform.WorkMemo

	// slots[i] is the time the i-th oldest outstanding-access slot
	// frees; with a single latency class, slots free in FIFO order.
	slots := make([]sim.Time, maxOutstanding)
	// loadDone[:k] holds the current batch's load completion times.
	loadDone := make([]sim.Time, maxOutstanding)

	// records is the retirement timeline that retiredBy walks from
	// ptr, which only moves forward. The records behind ptr are dropped
	// whenever they are at least half the slice, so it stays about as
	// long as the instruction window spans, not as long as the trace.
	var records []iterRecord
	ptr := 0
	var base int64
	var lastIssue, prevWorkEnd, prevComplete sim.Time

	// retiredBy returns the earliest time the core has retired x
	// instructions, walking the retirement timeline built so far.
	retiredBy := func(x int64) sim.Time {
		if x <= 0 {
			return 0
		}
		for ptr < len(records) {
			r := &records[ptr]
			end := r.base + int64(r.reads) + int64(r.workInstr)
			if end < x {
				ptr++
				continue
			}
			if x <= r.base+int64(r.reads) {
				// Loads retire in a burst at workStart.
				return r.workStart
			}
			// Within the linear work ramp.
			frac := float64(x-r.base-int64(r.reads)) / float64(r.workInstr)
			return r.workStart + sim.Time(frac*float64(r.workEnd-r.workStart))
		}
		// Beyond everything retired so far; caller logic prevents this
		// (iterations are processed in order), but be safe.
		return prevWorkEnd
	}

	for _, it := range trace {
		k := it.Reads
		if k <= 0 {
			k = 1
		}
		if k > maxOutstanding {
			k = maxOutstanding
		}
		for range it.Iterations() {
			// (a) Window constraint: the youngest load of the batch
			// (index base+k-1) dispatches when instruction
			// base+k-1-window retired.
			windowReady := retiredBy(base + int64(k) - int64(cfg.WindowSize))
			// (b) Slot constraint: the k-th earliest-freeing slot.
			slotReady := slots[k-1]
			// (c) Address dependence: a chained load waits for the load
			// that produced its address.
			if it.Dependent {
				windowReady = maxTime(windowReady, prevComplete)
			}

			issue := maxTime(maxTime(windowReady, slotReady), lastIssue)
			lastIssue = issue
			if res.Latencies == nil {
				res.Latencies = stats.NewHistogram()
			}
			// The batch's loads complete staggered by the memory's issue
			// gap; the dependent work waits for the last of them. Under
			// fault injection each load's latency is its own recovery-
			// inclusive draw instead of the uniform value.
			for i := 0; i < k; i++ {
				lat := latency
				out := fault.AccessOutcome{Latency: lat}
				if draw != nil {
					out = draw()
					lat = out.Latency
					res.Retries += out.Retries
					res.Timeouts += out.Timeouts
					if out.Abandoned {
						res.Abandoned++
					}
				}
				res.Latencies.Record(int64(out.Latency))
				loadDone[i] = issue + lat + sim.Time(i)*issueGap
				if observe != nil {
					observe(issue, loadDone[i], out)
				}
			}
			complete := loadDone[0]
			for _, t := range loadDone[1:k] {
				complete = maxTime(complete, t)
			}

			workStart := maxTime(complete, prevWorkEnd)
			workEnd := workStart + work.Time(&cfg, it.WorkInstr)

			// Recycle the k slots used: each frees at its own completion.
			copy(slots, slots[k:])
			copy(slots[maxOutstanding-k:], loadDone[:k])
			slices.Sort(slots)

			if len(records) == cap(records) && 2*ptr >= len(records) {
				records = records[:copy(records, records[ptr:])]
				ptr = 0
			}
			records = append(records, iterRecord{
				base: base, reads: k, workInstr: it.WorkInstr,
				workStart: workStart, workEnd: workEnd,
			})
			base += int64(k) + int64(it.WorkInstr)
			prevWorkEnd = workEnd
			prevComplete = complete

			res.Accesses += k
			res.WorkInstr += int64(it.WorkInstr)
		}
	}
	res.Elapsed = prevWorkEnd
	return res
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

// DRAMBaseline runs the single-threaded on-demand DRAM baseline for a
// trace — the denominator of every normalized result in the paper
// (§IV-C). With MLP in the trace, "the out-of-order scheduler finds
// multiple independent accesses in the instruction window and issues
// them into the memory system in parallel" (§V-B), which this model
// reproduces through its window constraint.
func DRAMBaseline(cfg platform.Config, trace []IterSpec) OnDemandResult {
	return RunOnDemand(cfg, trace, cfg.DRAMLatency, cfg.DRAMMaxOutstanding, cfg.DRAMIssueGap)
}

// DeviceOnDemandObserved runs the single-threaded on-demand
// microsecond-device case of Fig 2: the same core model, but loads take
// the device latency and in-flight accesses are additionally bounded by
// the chip-level MMIO queue. With a non-nil inj, each load's latency
// comes from the injector's analytic timeout/retry recovery model (device
// stragglers and drops, PCIe corruption and stalls), with the
// platform's backed-off per-attempt timeouts. observe (when non-nil)
// receives every load's issue and completion times, letting the trace
// layer synthesize access-lifecycle spans for the analytic on-demand
// mechanism, which has no engine events to hook. The observer never
// affects timing.
func DeviceOnDemandObserved(cfg platform.Config, trace []IterSpec, inj *fault.Injector, observe LoadObserver) OnDemandResult {
	limit := cfg.ChipQueueMMIO
	if cfg.LFBPerCore < limit {
		limit = cfg.LFBPerCore
	}
	var draw func() fault.AccessOutcome
	if inj != nil {
		draw = func() fault.AccessOutcome {
			return inj.HostAccessLatency(cfg.DeviceLatency, cfg.PCIeReplayPenalty, cfg.RetryTimeout, cfg.MaxRetries)
		}
	}
	// The over-provisioned emulator pays no issue gap (§IV-A).
	return runOnDemand(cfg, trace, cfg.DeviceLatency, limit, 0, draw, observe)
}
