package core

import (
	"bytes"
	"crypto/sha256"
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

// The stamped backing covers stampCores cores of up to stampThreads
// threads each, every thread reading its own address range.
const stampCores, stampThreads = 2, 16

// stampBacking serves views into one precomputed slab, the way the
// workloads' backings do: every line is stamped with its own address in
// its first eight bytes, so a line delivered to the wrong access is
// caught, and every line handed out is a capacity-clipped view of the
// slab, so a layer that writes into a delivered line corrupts the slab
// itself. Reads outside the slab return replay's shared zero line.
type stampBacking struct {
	slab  []byte
	lines uint64 // lines per thread region
	sum   [sha256.Size]byte
}

// newStampBacking builds a slab holding linesPerThread lines for every
// thread region.
func newStampBacking(linesPerThread int) *stampBacking {
	b := &stampBacking{lines: uint64(linesPerThread)}
	b.slab = make([]byte, stampCores*stampThreads*linesPerThread*platform.CacheLineBytes)
	for c := uint64(0); c < stampCores; c++ {
		for t := uint64(0); t < stampThreads; t++ {
			for j := uint64(0); j < b.lines; j++ {
				addr := stampAddr(c, t, j)
				binary.LittleEndian.PutUint64(b.slab[b.offset(addr):], addr)
			}
		}
	}
	b.sum = sha256.Sum256(b.slab)
	return b
}

// stampAddr is the address of line j of thread t on core c.
func stampAddr(c, t, j uint64) uint64 { return c<<40 | t<<24 | j*platform.CacheLineBytes }

// offset returns addr's line offset in the slab, or -1 outside it.
func (b *stampBacking) offset(addr uint64) int {
	c, t, j := addr>>40, addr>>24&(1<<16-1), addr&(1<<24-1)/platform.CacheLineBytes
	if c >= stampCores || t >= stampThreads || j >= b.lines {
		return -1
	}
	return int(((c*stampThreads+t)*b.lines + j) * platform.CacheLineBytes)
}

func (b *stampBacking) ReadLine(addr uint64) []byte {
	off := b.offset(addr)
	if off < 0 {
		return replay.ZeroLine()
	}
	return b.slab[off : off+platform.CacheLineBytes : off+platform.CacheLineBytes]
}

// keptLine is a line a thread received, kept to be checked again after
// the run.
type keptLine struct {
	addr uint64
	line []byte
	zero bool // delivered as an abandoned access's zero line
}

// stampedWorkload is the microbenchmark's access shape over
// stampBacking: each thread reads batches of distinct non-zero
// addresses and checks every line it receives. A line must carry its
// own address, or be a zero line (an abandoned access). The check runs
// in the step after the batch's work request, so lines that did not
// stay valid until the thread's next access request (a batch slice the
// executor recycled too early) show up as well. Every line is also
// kept, and verify checks after the run that none of them, nor the
// slab, changed.
type stampedWorkload struct {
	iters int // iterations per core
	reads int // lines per batch
	work  int

	backing         *stampBacking
	kept            []keptLine
	good, zero, bad int
	firstBad        string
}

func (w *stampedWorkload) Name() string { return fmt.Sprintf("stamped-r%d", w.reads) }

// Backing builds the slab on first use; a two-pass run's recording and
// measured runs share it.
func (w *stampedWorkload) Backing() replay.Backing {
	if w.backing == nil {
		w.backing = newStampBacking(w.iters*w.reads + 1)
	}
	return w.backing
}

func (w *stampedWorkload) BaselineTrace(int) []cpu.IterSpec {
	return cpu.UniformTrace(w.iters, w.reads, w.work)
}

func (w *stampedWorkload) Body(coreID, threadID, threadsPerCore int) uthread.Step {
	n := w.iters / threadsPerCore
	if threadID < w.iters%threadsPerCore {
		n++
	}
	addrs := make([]uint64, w.reads)
	next := uint64(1)
	var held [][]byte // the batch's lines, checked after its work
	return func(lines [][]byte) (uthread.Request, bool) {
		if lines != nil {
			held = lines
			if w.work > 0 {
				return uthread.Request{Kind: uthread.KindWork, Instr: w.work}, true
			}
		}
		for j, line := range held {
			w.check(addrs[j], line)
		}
		held = nil
		if n == 0 {
			return uthread.Request{}, false
		}
		n--
		for j := range addrs {
			addrs[j] = stampAddr(uint64(coreID), uint64(threadID), next)
			next++
		}
		return uthread.Request{Kind: uthread.KindAccess, Addrs: addrs}, true
	}
}

func (w *stampedWorkload) check(addr uint64, line []byte) {
	switch got := binary.LittleEndian.Uint64(line); {
	case len(line) != platform.CacheLineBytes:
		w.bad++
	case got == addr:
		w.good++
		w.kept = append(w.kept, keptLine{addr: addr, line: line})
	case got == 0 && isZero(line):
		w.zero++
		w.kept = append(w.kept, keptLine{addr: addr, line: line, zero: true})
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
// It then checks that nothing wrote into a shared line: the slab hashes
// as it was built, the shared zero line is still zero, and every line a
// thread kept still equals its backing (or is still zero).
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
	if sha256.Sum256(w.backing.slab) != w.backing.sum {
		t.Errorf("%s: the backing's slab changed during the run", name)
	}
	if !isZero(replay.ZeroLine()) {
		t.Errorf("%s: the shared zero line was written", name)
	}
	changed := 0
	for _, k := range w.kept {
		if k.zero && !isZero(k.line) || !k.zero && !bytes.Equal(k.line, w.backing.ReadLine(k.addr)) {
			changed++
		}
	}
	if changed != 0 {
		t.Errorf("%s: %d of %d kept lines changed after delivery", name, changed, len(w.kept))
	}
}

// stampedMech is a threaded mechanism's entry point, by name.
type stampedMech struct {
	name string
	run  func(platform.Config, Workload, int, bool) (Result, error)
}

var stampedMechs = []stampedMech{{"prefetch", RunPrefetch}, {"swqueue", RunSWQueue}, {"kernelq", RunKernelQueue}}

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

// TestDeliveredLinesStayIntact runs every threaded mechanism over the
// view-serving stamped backing, fault-free and under
// TestNoStaleCallbackDelivery's plan, with and without replay (inline
// recording fault-free, a recording run plus replay modules under
// faults). No layer between the backing and the thread may write into a
// line it delivers: the lines are views of one shared slab.
func TestDeliveredLinesStayIntact(t *testing.T) {
	faulty := fault.Plan{Seed: 3, DuplicateProb: 1, StragglerProb: 0.05, StragglerFactor: 100, DropCompletionProb: 0.05}
	smt := stampedMech{"smt", func(cfg platform.Config, w Workload, _ int, _ bool) (Result, error) { return RunSMT(cfg, w) }}
	for _, m := range append([]stampedMech{smt}, stampedMechs...) {
		for _, plan := range []fault.Plan{{}, faulty} {
			for _, useReplay := range []bool{false, true} {
				if useReplay && m.name == "smt" {
					continue // RunSMT never replays
				}
				name := fmt.Sprintf("%s/faults=%v/replay=%v", m.name, plan.Enabled(), useReplay)
				cfg := platform.Default()
				cfg.Cores = stampCores
				cfg.Faults = plan
				w := &stampedWorkload{iters: 200, reads: 2, work: workload.DefaultWorkCount}
				r, err := m.run(cfg, w, 8, useReplay)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// A recording run in front of the measured run runs
				// the workload's bodies a second time.
				passes := 1
				if useReplay && plan.Enabled() {
					passes = 2
				}
				w.verify(t, name, r, passes*cfg.Cores)
			}
		}
	}
}
