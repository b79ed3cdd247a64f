package core

import (
	"fmt"
	"strings"

	"repro/internal/attrib"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/uthread"
)

// Result is one measured run: the paper-facing measurement plus the
// internal diagnostics that explain it.
type Result struct {
	stats.Measurement
	Diag Diagnostics

	// Series is the flight-recorder time series, nil unless the config
	// enables it (MetricsWindow > 0). It is a pure value type so it
	// rides through the gob-encoded result cache unchanged.
	Series *stats.TimeSeries

	// Attrib is the latency-attribution summary, nil unless the config
	// enables it (Attribution). Like Series it is a pure value type
	// that rides through the gob-encoded result cache unchanged.
	Attrib *stats.AttribSummary

	// Fleet is the cluster-cell payload, nil for single-host runs. A
	// pure value type, so it too rides the gob-encoded result cache.
	Fleet *stats.FleetSummary
}

// RunDRAMBaseline measures the single-threaded on-demand DRAM run that
// every result is normalized to (§IV-C). Multicore experiments are also
// normalized to this single-core baseline ("normalize all results to the
// performance of a single-core DRAM baseline", §V-B).
func RunDRAMBaseline(cfg platform.Config, w Workload) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	trace := w.BaselineTrace(0)
	r := cpu.DRAMBaseline(cfg, trace)
	return Result{Measurement: stats.Measurement{
		Label:          fmt.Sprintf("dram-baseline/%s", w.Name()),
		Iterations:     cpu.Iterations(trace),
		Accesses:       r.Accesses,
		WorkInstr:      float64(r.WorkInstr),
		ElapsedSeconds: r.Elapsed.Seconds(),
	}}, nil
}

// RunOnDemandDevice measures unmodified software demand-loading the
// microsecond device through the cacheable MMIO mapping (Fig 2): the
// interval core model with the device latency and the chip-level queue
// bound. With fault injection enabled each load's latency comes from
// the analytic timeout/retry recovery model.
func RunOnDemandDevice(cfg platform.Config, w Workload) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	iters := w.BaselineTrace(0)
	inj := fault.NewInjector(cfg.Faults)
	label := fmt.Sprintf("ondemand/%s lat=%v", w.Name(), cfg.DeviceLatency)

	// The analytic interval model has no engine events to hook, so one
	// per-load observer synthesizes every enabled layer's view of each
	// load; it never affects timing.
	//
	//   - Trace: one access span per load.
	//   - Flight recorder: issue times are monotone, so windows advance
	//     with issue order, and completion times that regress under
	//     recovery reordering fall into the current window (see
	//     telemetry.Recorder.advance).
	//   - Attribution: each load's closed-form latency decomposes the
	//     way HostAccessLatency assembled it. The failed attempts'
	//     timeouts are retry backoff, the PCIe round trip of the
	//     successful attempt is transit, and the remainder is device
	//     service. The decomposition telescopes exactly because the
	//     model's complete-issue window equals the outcome latency
	//     (device loads issue back-to-back with no issue gap).
	run := cfg.Trace.NewRun(label)
	tk := run.NewTrack("core0")
	rec := newRecorder(cfg, label)
	at := newProbe(cfg, label, rec)
	var observe cpu.LoadObserver
	if run != nil || rec != nil || at != nil {
		rtt := cfg.MMIORoundTrip()
		observe = func(issue, complete sim.Time, out fault.AccessOutcome) {
			sp := tk.BeginSpan(issue, "access", "")
			rec.Started(issue)
			rec.Finished(complete)
			rec.Sample(complete, complete-issue)
			if out.Timeouts > 0 {
				sp.Point(complete, "timeout")
				rec.Timeouts(complete, out.Timeouts)
			}
			if out.Retries > 0 {
				sp.Point(complete, "retry")
				rec.Retries(complete, out.Retries)
			}
			if out.Abandoned {
				sp.Point(complete, "abandoned")
				rec.Abandoned(complete, 1)
			}
			sp.End(complete)

			aw := at.Open(issue)
			if out.Abandoned {
				aw.Close(attrib.PhaseRetry, complete)
				return
			}
			var backoff sim.Time
			for i := 0; i < out.Timeouts; i++ {
				backoff += cfg.RetryTimeout(i)
			}
			aw.To(attrib.PhaseRetry, issue+backoff)
			transitEnd := issue + backoff + rtt
			if transitEnd > complete {
				transitEnd = complete
			}
			aw.To(attrib.PhaseTransit, transitEnd)
			aw.Close(attrib.PhaseDevice, complete)
		}
	}

	r := cpu.DeviceOnDemandObserved(cfg, iters, inj, observe)
	res := Result{Measurement: stats.Measurement{
		Label:          label,
		Iterations:     cpu.Iterations(iters),
		Accesses:       r.Accesses,
		WorkInstr:      float64(r.WorkInstr),
		ElapsedSeconds: r.Elapsed.Seconds(),
		Retries:        uint64(r.Retries),
		Timeouts:       uint64(r.Timeouts),
		Abandoned:      uint64(r.Abandoned),
	}}
	res.Diag.Retries = uint64(r.Retries)
	res.Diag.Timeouts = uint64(r.Timeouts)
	res.Diag.Abandoned = uint64(r.Abandoned)
	res.Diag.Faults = inj.Counters()
	res.Diag.TraceEvents = run.Events()
	res.Diag.AccessP50Ns = sim.Time(r.Latencies.Quantile(0.50)).Nanoseconds()
	res.Diag.AccessP99Ns = sim.Time(r.Latencies.Quantile(0.99)).Nanoseconds()
	res.Diag.AccessP999Ns = sim.Time(r.Latencies.Quantile(0.999)).Nanoseconds()
	res.Measurement.AccessP50Ns = res.Diag.AccessP50Ns
	res.Measurement.AccessP99Ns = res.Diag.AccessP99Ns
	res.Measurement.AccessP999Ns = res.Diag.AccessP999Ns
	res.Series = rec.Finish(r.Elapsed)
	res.Attrib = at.Summary()
	return res, nil
}

// coreRunner builds one mechanism's scheduler for one core, driving
// that core's user-level threads. It only builds the record: the
// scheduler does all of its work, its setup included, in engine
// events, the first of which launch schedules.
type coreRunner func(e *Env, coreID int, threads []*uthread.Thread) *sched

// sched is what launch needs of a per-core scheduler. Each scheduler
// is an engine continuation — a state machine whose bound resumeFn
// runs until the core must wait on simulated time, a gate or a token,
// registers resumeFn as the waiter and returns — so a core costs no
// coroutine of its own, and a thread step is a plain call from the
// scheduler into the thread's step function.
type sched struct {
	resumeFn func()
	done     bool // the scheduler ran every thread to completion
}

// RunPrefetch measures the prefetch + user-level-context-switch
// mechanism with threadsPerCore threads on each of cfg.Cores cores.
//
// useReplay selects the paper's record/replay methodology (§IV-A) for
// workloads whose control flow depends on device data (the
// applications); the microbenchmark's synthetic pattern does not need
// it. Without a fault plan the measured run records its own (address,
// data) sequence, every access served on the replay fast path, so the
// workload's own counters see one pass. With a fault plan enabled a
// clean recording run goes first and the measured run streams it
// through the replay modules (see runReplay), so the workload runs two
// passes.
func RunPrefetch(cfg platform.Config, w Workload, threadsPerCore int, useReplay bool) (Result, error) {
	return runThreaded(cfg, w, "prefetch", threadsPerCore, useReplay, runPrefetchCore)
}

// RunSWQueue measures the application-managed software-queue mechanism.
// useReplay is as for RunPrefetch.
func RunSWQueue(cfg platform.Config, w Workload, threadsPerCore int, useReplay bool) (Result, error) {
	return runThreaded(cfg, w, "swqueue", threadsPerCore, useReplay, runSWQCore)
}

func runThreaded(cfg platform.Config, w Workload, mech string, threadsPerCore int, useReplay bool, run coreRunner) (Result, error) {
	mode := replayOff
	switch {
	case useReplay && cfg.Faults.Enabled():
		mode = replayTwoPass
	case useReplay:
		mode = replayInline
	}
	res, _, err := runReplay(cfg, w, mech, threadsPerCore, mode, run)
	return res, err
}

// replayMode is how a threaded run's device serves the workload's data.
type replayMode int

const (
	// replayOff serves every request from the backing at replay-path
	// timing (the device's ideal mode).
	replayOff replayMode = iota
	// replayInline records the measured run's own access sequence. The
	// recording run of the paper's two runs differs from the measured
	// run only in observers, which never change the simulation, and in
	// the fault plan; without faults the two see the same access
	// sequence event for event, and a recorder answers at the same
	// timing with the same line as a matching replay module. So the
	// measured run needs no recording run in front of it, and the
	// device keeps only the count of captured lines (EnableCounting),
	// which is all the on-board capacity check reads.
	replayInline
	// replayTwoPass is the paper's two runs (§IV-A): a clean recording
	// run, then the measured run served through the replay modules,
	// whose window, skip and on-demand fallback absorb the divergence
	// that retries, duplicates and drops introduce.
	replayTwoPass
)

// runReplay is runThreaded with the replay mode chosen by the caller;
// it also returns the measured run's Env so tests can inspect its
// device.
func runReplay(cfg platform.Config, w Workload, mech string, threadsPerCore int, mode replayMode, run coreRunner) (Result, *Env, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, nil, err
	}
	if threadsPerCore <= 0 {
		return Result{}, nil, fmt.Errorf("core: threadsPerCore %d must be positive", threadsPerCore)
	}

	e := NewEnv(cfg, w.Backing())
	switch mode {
	case replayInline:
		for coreID := 0; coreID < cfg.Cores; coreID++ {
			e.dev.EnableCounting(coreID)
		}
	case replayTwoPass:
		recs, err := record(cfg, w, threadsPerCore, run)
		if err != nil {
			return Result{}, nil, fmt.Errorf("core: recording run: %w", err)
		}
		for coreID := 0; coreID < cfg.Cores; coreID++ {
			if err := e.dev.LoadRecording(coreID, recs[coreID], 0); err != nil {
				return Result{}, nil, err
			}
		}
	}

	label := fmt.Sprintf("%s/%s lat=%v cores=%d threads=%d",
		mech, w.Name(), cfg.DeviceLatency, cfg.Cores, threadsPerCore)
	e.startObservability(label)
	if err := launch(e, w, threadsPerCore, run); err != nil {
		return Result{}, nil, err
	}
	if mode == replayInline {
		for coreID := 0; coreID < cfg.Cores; coreID++ {
			if err := e.dev.KeepRecording(coreID); err != nil {
				return Result{}, nil, err
			}
		}
	}
	c := &e.c
	diag := e.diagnostics()
	res := Result{
		Measurement: stats.Measurement{
			Label:             label,
			Accesses:          c.accesses,
			WorkInstr:         float64(c.workInstr),
			ElapsedSeconds:    c.finish.Seconds(),
			Retries:           c.retries,
			Timeouts:          c.timeouts,
			Abandoned:         c.abandoned,
			AccessP50Ns:       diag.AccessP50Ns,
			AccessP99Ns:       diag.AccessP99Ns,
			AccessP999Ns:      diag.AccessP999Ns,
			MeanLFBOccupancy:  diag.MeanLFBOccupancy,
			MeanChipOccupancy: diag.MeanChipOccupancy,
		},
		Diag: diag,
	}
	res.Series = e.rec.Finish(c.finish)
	res.Attrib = e.at.Summary()
	e.eng.Recycle()
	return res, e, nil
}

// RecordAccessTrace performs a recording run (the first of the paper's
// two runs, §IV-A) of the workload under the given mechanism and
// returns each core's captured (address, data) sequence. The recordings
// can be persisted with replay.Recording.WriteTo and later loaded into
// measured runs — the record-once, replay-many workflow of the paper's
// platform. mech is "prefetch", "swqueue", or "kernelq". Fault plans are
// ignored: recordings capture clean traces.
func RecordAccessTrace(cfg platform.Config, w Workload, threadsPerCore int, mech string) (map[int]*replay.Recording, error) {
	var run coreRunner
	switch mech {
	case "prefetch":
		run = runPrefetchCore
	case "swqueue":
		run = runSWQCore
	case "kernelq":
		run = runKernelQCore
	default:
		return nil, fmt.Errorf("core: unknown mechanism %q", mech)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if threadsPerCore <= 0 {
		return nil, fmt.Errorf("core: threadsPerCore %d must be positive", threadsPerCore)
	}
	return record(cfg, w, threadsPerCore, run)
}

// record performs a recording run: the workload under run with every
// core's device in capture mode, returning each core's captured
// (address, data) sequence. Faults, tracing, telemetry and attribution
// are stripped so the captured sequence stays clean and only a measured
// run is observed.
func record(cfg platform.Config, w Workload, threadsPerCore int, run coreRunner) (map[int]*replay.Recording, error) {
	cfg.Faults = fault.Plan{}
	cfg.Trace = nil
	cfg.MetricsWindow = 0
	cfg.MetricsSink = nil
	cfg.Attribution = false
	e := NewEnv(cfg, w.Backing())
	for coreID := 0; coreID < cfg.Cores; coreID++ {
		e.dev.EnableRecording(coreID)
	}
	if err := launch(e, w, threadsPerCore, run); err != nil {
		return nil, err
	}
	out := make(map[int]*replay.Recording, cfg.Cores)
	for coreID := 0; coreID < cfg.Cores; coreID++ {
		out[coreID] = e.dev.TakeRecording(coreID)
	}
	// The recording engine is quiescent; hand its backing arrays to the
	// next engine on this worker (a two-pass cell's measured run).
	e.eng.Recycle()
	return out, nil
}

// launch starts one scheduler per core, each driving its own set of
// user-level threads, and runs the simulation to completion,
// accumulating the run's totals in e.c. A scheduler starts in a
// now-queue event of its own, as a process would. The watchdog after
// the run turns a core that deadlocks (e.g. waiting forever on a
// completion that a fault swallowed and recovery failed to replace)
// into an error naming the stuck core instead of a silently truncated
// measurement. Whether the run ends cleanly, stuck, or in a panic from
// a workload's step, launch leaves nothing parked: a thread is a step
// function holding no goroutine, the deferred teardown stops every
// unfinished one, and a stuck scheduler holds no coroutine — only its
// waiter entries, which the engine drops.
func launch(e *Env, w Workload, threadsPerCore int, run coreRunner) error {
	all := make([]*uthread.Thread, e.cfg.Cores*threadsPerCore)
	scheds := make([]*sched, e.cfg.Cores)
	for coreID := range scheds {
		end := (coreID + 1) * threadsPerCore
		threads := all[end-threadsPerCore : end : end]
		for t := range threads {
			threads[t] = uthread.NewStep(t, w.Body(coreID, t, threadsPerCore))
		}
		scheds[coreID] = run(e, coreID, threads)
		e.eng.At(e.eng.Now(), scheds[coreID].resumeFn)
	}
	defer func() {
		for _, th := range all {
			th.Stop()
		}
	}()
	if _, err := e.eng.RunChecked(); err != nil {
		return err
	}
	var stuck []string
	for coreID, s := range scheds {
		if !s.done {
			stuck = append(stuck, fmt.Sprintf("core%d", coreID))
		}
	}
	if len(stuck) > 0 {
		return fmt.Errorf("core: quiescent with %d core(s) still blocked: %s", len(stuck), strings.Join(stuck, ", "))
	}
	return nil
}
