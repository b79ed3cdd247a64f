package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/uthread"
	"repro/internal/workload"
)

// stampBacking serves every line stamped with its own address in its
// first eight bytes, so a line delivered to the wrong access is caught.
type stampBacking struct{}

func (stampBacking) ReadLine(addr uint64) []byte {
	line := make([]byte, platform.CacheLineBytes)
	binary.LittleEndian.PutUint64(line, addr)
	return line
}

// stampedWorkload is the microbenchmark's access shape over
// stampBacking: each thread reads batches of distinct non-zero
// addresses and checks every line it receives. A line must carry its
// own address, or be a zero line (an abandoned access). The check runs
// after the thread's next API call (the work block), so a batch slice
// the executor recycled too early shows up as well.
type stampedWorkload struct {
	iters int // iterations per core
	reads int // lines per batch
	work  int

	good, zero, bad int
	firstBad        string
}

func (w *stampedWorkload) Name() string            { return fmt.Sprintf("stamped-r%d", w.reads) }
func (w *stampedWorkload) Backing() replay.Backing { return stampBacking{} }

func (w *stampedWorkload) BaselineTrace(int) []cpu.IterSpec {
	return cpu.UniformTrace(w.iters, w.reads, w.work)
}

func (w *stampedWorkload) Body(coreID, threadID, threadsPerCore int) func(*uthread.API) {
	n := w.iters / threadsPerCore
	if threadID < w.iters%threadsPerCore {
		n++
	}
	base := uint64(coreID)<<40 | uint64(threadID)<<24
	return func(a *uthread.API) {
		addrs := make([]uint64, w.reads)
		next := uint64(1)
		for i := 0; i < n; i++ {
			for j := range addrs {
				addrs[j] = base + next*platform.CacheLineBytes
				next++
			}
			lines := a.AccessBatch(addrs)
			a.Work(w.work)
			for j, line := range lines {
				w.check(addrs[j], line)
			}
		}
	}
}

func (w *stampedWorkload) check(addr uint64, line []byte) {
	switch got := binary.LittleEndian.Uint64(line); {
	case len(line) != platform.CacheLineBytes:
		w.bad++
	case got == addr:
		w.good++
	case got == 0 && isZero(line):
		w.zero++
	default:
		if w.bad == 0 {
			w.firstBad = fmt.Sprintf("line for %#x carries %#x", addr, got)
		}
		w.bad++
	}
}

func isZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// verify checks the lines the threads received against the run's
// diagnostics: every access saw its own line or an abandoned zero line.
func (w *stampedWorkload) verify(t *testing.T, name string, r Result, cores int) {
	t.Helper()
	if w.bad != 0 {
		t.Errorf("%s: %d lines delivered to the wrong access (first: %s)", name, w.bad, w.firstBad)
	}
	if uint64(w.zero) != r.Diag.Abandoned {
		t.Errorf("%s: %d zero lines, %d abandoned accesses", name, w.zero, r.Diag.Abandoned)
	}
	if want := cores * w.iters * w.reads; w.good+w.zero+w.bad != want {
		t.Errorf("%s: threads checked %d lines, want %d", name, w.good+w.zero+w.bad, want)
	}
}

var stampedMechs = []struct {
	name string
	run  func(platform.Config, Workload, int, bool) (Result, error)
}{{"prefetch", RunPrefetch}, {"swqueue", RunSWQueue}, {"kernelq", RunKernelQueue}}

// TestNoStaleCallbackDelivery: under a plan where every response is
// duplicated and some straggle far past their retry timeout or are
// dropped, late callbacks keep arriving for accesses the threads have
// already consumed. None of them may reach a later access: every line
// a thread receives carries its own address, or is the zero line of an
// abandoned access.
func TestNoStaleCallbackDelivery(t *testing.T) {
	cfg := platform.Default()
	cfg.Cores = 2
	cfg.Faults = fault.Plan{Seed: 3, DuplicateProb: 1, StragglerProb: 0.05, StragglerFactor: 100, DropCompletionProb: 0.05}
	for _, m := range stampedMechs {
		w := &stampedWorkload{iters: 300, reads: 2, work: workload.DefaultWorkCount}
		r, err := m.run(cfg, w, 8, false)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		w.verify(t, m.name, r, cfg.Cores)
		if r.Diag.Faults.Duplicates == 0 || r.Diag.Retries == 0 {
			t.Errorf("%s: plan exercised no late callbacks: duplicates=%d retries=%d",
				m.name, r.Diag.Faults.Duplicates, r.Diag.Retries)
		}
	}
}
