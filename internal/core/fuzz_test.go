package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fuzzProb maps a fuzzed integer onto a probability in [0, 0.2].
func fuzzProb(x uint16) float64 { return float64(x%2001) / 10000 }

// FuzzAccessPath runs the threaded mechanisms over fuzzed seeds, thread
// counts, batch sizes, fault plans and retry budgets, and checks the
// invariants the simulator states about every access:
//
//   - every access the workload issues is counted, and every line a
//     thread receives is its own or an abandoned zero line;
//   - the flight recorder's totals equal the diagnostics, and every
//     started access completes exactly once;
//   - every attribution ledger closes without clamping;
//   - a second run of the same inputs gives a deeply equal Result;
//   - no goroutine outlives the run.
//
// Gate.Fire panics on a second fire, so a response delivered twice
// fails the target as well. The seed corpus runs under plain go test;
// fuzz with
//
//	go test -run '^$' -fuzz '^FuzzAccessPath$' -fuzztime 30s ./internal/core
func FuzzAccessPath(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint8(1), uint16(0), uint16(0), uint16(0), uint16(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(8), uint8(2), uint16(0), uint16(0), uint16(0), uint16(0), uint8(0))
	f.Add(int64(3), uint8(2), uint8(3), uint8(1), uint16(0), uint16(0), uint16(0), uint16(0), uint8(0))
	f.Add(int64(4), uint8(0), uint8(16), uint8(4), uint16(500), uint16(300), uint16(2000), uint16(200), uint8(2))
	f.Add(int64(5), uint8(1), uint8(10), uint8(3), uint16(2000), uint16(1000), uint16(1000), uint16(500), uint8(0))
	f.Add(int64(6), uint8(2), uint8(5), uint8(2), uint16(1000), uint16(2000), uint16(500), uint16(2000), uint8(1))
	f.Add(int64(7), uint8(0), uint8(1), uint8(3), uint16(2000), uint16(2000), uint16(2000), uint16(2000), uint8(0))
	f.Add(int64(8), uint8(1), uint8(16), uint8(1), uint16(200), uint16(0), uint16(2000), uint16(0), uint8(2))

	f.Fuzz(func(t *testing.T, seed int64, mech, threads, reads uint8, drop, straggle, dup, corrupt uint16, retries uint8) {
		m := stampedMechs[int(mech)%len(stampedMechs)]
		nThreads := 1 + int(threads)%16
		nReads := 1 + int(reads)%4
		cfg := platform.Default()
		cfg.Cores = 2
		cfg.MaxRetries = int(retries) % 3
		cfg.Attribution = true
		cfg.MetricsWindow = 5 * sim.Microsecond
		cfg.Faults = fault.Plan{
			Seed:               seed,
			DropCompletionProb: fuzzProb(drop),
			StragglerProb:      fuzzProb(straggle),
			DuplicateProb:      fuzzProb(dup),
			TLPCorruptProb:     fuzzProb(corrupt),
		}
		run := func() (Result, *stampedWorkload) {
			w := &stampedWorkload{iters: 40, reads: nReads, work: workload.DefaultWorkCount}
			r, err := m.run(cfg, w, nThreads, false)
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			return r, w
		}

		before := runtime.NumGoroutine()
		r, w := run()
		w.verify(t, m.name, r, cfg.Cores)
		if want := cfg.Cores * w.iters * nReads; r.Accesses != want {
			t.Errorf("%s: %d accesses, workload issued %d", m.name, r.Accesses, want)
		}
		ts, d := r.Series, r.Diag
		if ts == nil {
			t.Fatalf("%s: no flight-recorder series", m.name)
		}
		if ts.TotalStarts != uint64(r.Accesses) || ts.TotalCompletes != ts.TotalStarts {
			t.Errorf("%s: recorder starts %d, completes %d, accesses %d",
				m.name, ts.TotalStarts, ts.TotalCompletes, r.Accesses)
		}
		if ts.TotalRetries != d.Retries || ts.TotalTimeouts != d.Timeouts ||
			ts.TotalAbandoned != d.Abandoned || ts.TotalSwitches != d.Switches {
			t.Errorf("%s: recorder (retries %d, timeouts %d, abandoned %d, switches %d) != diag (%d, %d, %d, %d)",
				m.name, ts.TotalRetries, ts.TotalTimeouts, ts.TotalAbandoned, ts.TotalSwitches,
				d.Retries, d.Timeouts, d.Abandoned, d.Switches)
		}
		if a := r.Attrib; a == nil || a.Mismatches != 0 || a.Accesses != uint64(r.Accesses) {
			t.Errorf("%s: attribution %+v, want %d clean ledgers", m.name, a, r.Accesses)
		}

		again, _ := run()
		if !reflect.DeepEqual(r, again) {
			t.Errorf("%s: two runs of the same inputs differ", m.name)
		}

		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > before {
			t.Errorf("%s: %d goroutines after the runs, %d before", m.name, n, before)
		}
	})
}
