package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/replay"
	"repro/internal/uthread"
)

// bodyFunc is a workload's Body method: the code of one thread at a
// (coreID, threadID, threadsPerCore) placement.
type bodyFunc = func(coreID, threadID, threadsPerCore int) uthread.Step

// drive runs one thread to completion under an instant executor
// that serves accesses straight from the backing store and resumes work
// and posted writes at once, handing every request, the final KindDone
// included, to onReq first.
func drive(t *testing.T, step uthread.Step, backing replay.Backing, onReq func(uthread.Request)) {
	t.Helper()
	th := uthread.NewStep(0, step)
	for req := th.Start(); ; {
		onReq(req)
		switch req.Kind {
		case uthread.KindDone:
			return
		case uthread.KindAccess:
			lines := make([][]byte, len(req.Addrs))
			for i, a := range req.Addrs {
				lines[i] = backing.ReadLine(a)
			}
			req = th.Resume(lines)
		default:
			req = th.Resume(nil)
		}
	}
}

// runFunctional drives a thread with the instant executor,
// returning the number of accesses and work instructions requested.
func runFunctional(t *testing.T, step uthread.Step, backing replay.Backing) (accesses int, work int64) {
	t.Helper()
	drive(t, step, backing, func(r uthread.Request) {
		switch r.Kind {
		case uthread.KindWork:
			work += int64(r.Instr)
		case uthread.KindAccess:
			accesses += len(r.Addrs)
		}
	})
	return accesses, work
}

// --- microbenchmark ---

func TestMicrobenchBodyCounts(t *testing.T) {
	m := NewMicrobench(100, 200, 2)
	acc, work := runFunctional(t, m.Body(0, 0, 1), m.Backing().(interface{ ReadLine(uint64) []byte }))
	if acc != 200 {
		t.Errorf("accesses = %d, want 200 (100 iters x MLP 2)", acc)
	}
	if work != 100*200 {
		t.Errorf("work = %d, want 20000", work)
	}
}

func TestMicrobenchSplitAcrossThreads(t *testing.T) {
	m := NewMicrobench(103, 200, 1)
	total := 0
	for tid := 0; tid < 4; tid++ {
		acc, _ := runFunctional(t, m.Body(0, tid, 4), m.Backing().(interface{ ReadLine(uint64) []byte }))
		total += acc
	}
	if total != 103 {
		t.Errorf("threads performed %d accesses total, want 103", total)
	}
}

func TestMicrobenchFreshLines(t *testing.T) {
	// Every access must touch a distinct cache line (§IV-C).
	m := NewMicrobench(50, 100, 4)
	seen := map[uint64]bool{}
	th := uthread.NewStep(0, m.Body(0, 0, 1))
	req := th.Start()
	for req.Kind != uthread.KindDone {
		if req.Kind == uthread.KindAccess {
			for _, a := range req.Addrs {
				if seen[a] {
					t.Fatalf("address %#x reused", a)
				}
				seen[a] = true
			}
			req = th.Resume(make([][]byte, len(req.Addrs)))
		} else {
			req = th.Resume(nil)
		}
	}
}

func TestMicrobenchBaselineMatchesBodies(t *testing.T) {
	m := NewMicrobench(97, 150, 2)
	trace := m.BaselineTrace(0)
	var tAcc, tWork int64
	for _, it := range trace {
		n := int64(it.Iterations())
		tAcc += n * int64(it.Reads)
		tWork += n * int64(it.WorkInstr)
	}
	var bAcc, bWork int64
	for tid := 0; tid < 3; tid++ {
		a, w := runFunctional(t, m.Body(0, tid, 3), m.Backing().(interface{ ReadLine(uint64) []byte }))
		bAcc += int64(a)
		bWork += w
	}
	if tAcc != bAcc || tWork != bWork {
		t.Errorf("baseline (%d acc, %d work) != bodies (%d acc, %d work)", tAcc, tWork, bAcc, bWork)
	}
}

func TestMicrobenchZeroReadsClamped(t *testing.T) {
	m := NewMicrobench(10, 100, 0)
	if m.Reads != 1 {
		t.Errorf("reads = %d, want clamped to 1", m.Reads)
	}
}

// --- mirror backing ---

func TestMirrorBackingPerCoreRegions(t *testing.T) {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	b := mirrorBacking{data: data}
	l0 := b.ReadLine(coreRegion(0) + 64)
	l7 := b.ReadLine(coreRegion(7) + 64)
	if l0[0] != 64 || l7[0] != 64 {
		t.Errorf("mirrored lines differ: %d %d, want 64", l0[0], l7[0])
	}
	// Unaligned addresses read their containing line.
	if got := b.ReadLine(coreRegion(2) + 65); got[0] != 64 {
		t.Errorf("unaligned mirrored read = %d", got[0])
	}
	// Beyond the dataset: zero line.
	far := b.ReadLine(coreRegion(1) + 1<<20)
	for _, v := range far {
		if v != 0 {
			t.Fatal("out-of-range mirrored read not zero")
		}
	}
}

// TestMirrorBackingViews: a full line is a capacity-clipped view of the
// dataset, read without allocating; a partial tail line is a
// zero-padded copy; an out-of-range read is the shared zero line.
func TestMirrorBackingViews(t *testing.T) {
	data := make([]byte, 3*LineSize+8)
	for i := range data {
		data[i] = byte(i + 1)
	}
	b := mirrorBacking{data: data}
	if l := b.ReadLine(coreRegion(3) + LineSize); &l[0] != &data[LineSize] || len(l) != LineSize || cap(l) != LineSize {
		t.Errorf("full line is not a clipped view: len %d cap %d", len(l), cap(l))
	}
	tail := b.ReadLine(3 * LineSize)
	if len(tail) != LineSize || &tail[0] == &data[3*LineSize] || tail[7] != data[3*LineSize+7] || tail[8] != 0 {
		t.Errorf("tail line %v is not a zero-padded copy", tail)
	}
	if far := b.ReadLine(1 << 20); &far[0] != &replay.ZeroLine()[0] {
		t.Error("out-of-range read is not the shared zero line")
	}
	var backing replay.Backing = b
	if n := testing.AllocsPerRun(100, func() { backing.ReadLine(coreRegion(1) + 2*LineSize) }); n != 0 {
		t.Errorf("full-line read allocates %v objects", n)
	}
}

// threadAllocs builds one thread's step with newStep and runs it to
// completion under an instant executor that serves accesses from
// backing into one reused batch slice, and returns the objects the
// build and the run allocate.
func threadAllocs(newStep func() uthread.Step, backing replay.Backing) float64 {
	var lines [][]byte
	return testing.AllocsPerRun(1, func() {
		th := uthread.NewStep(0, newStep())
		for req := th.Start(); req.Kind != uthread.KindDone; {
			if req.Kind != uthread.KindAccess {
				req = th.Resume(nil)
				continue
			}
			lines = lines[:0]
			for _, a := range req.Addrs {
				lines = append(lines, backing.ReadLine(a))
			}
			req = th.Resume(lines)
		}
	})
}

// TestThreadsAllocateNothingPerIteration: once a thread's buffers
// exist, its iterations (loop bodies, hops, lookups, traversals)
// allocate nothing, so a thread with four times the iterations
// allocates no more.
func TestThreadsAllocateNothingPerIteration(t *testing.T) {
	g := NewKronecker(8, 8, 3)
	for _, c := range []struct {
		name  string
		build func(iters int) (newStep func() uthread.Step, backing replay.Backing)
	}{
		{"ubench", func(n int) (func() uthread.Step, replay.Backing) {
			m := NewMicrobenchRW(n, 100, 2, 1)
			return func() uthread.Step { return m.Body(0, 0, 1) }, m.Backing()
		}},
		{"ptrchase", func(n int) (func() uthread.Step, replay.Backing) {
			p := NewPointerChase(64, n, 10)
			return func() uthread.Step { return p.Body(0, 0, 1) }, p.Backing()
		}},
		{"bloom", func(n int) (func() uthread.Step, replay.Backing) {
			b := NewBloom(1<<14, 4, 300, n, 0)
			return func() uthread.Step { return b.Body(0, 0, 1) }, b.Backing()
		}},
		{"memcached", func(n int) (func() uthread.Step, replay.Backing) {
			m := NewMemcached(128, 4, n, 10)
			return func() uthread.Step { return m.Body(0, 0, 1) }, m.Backing()
		}},
		{"bfs", func(n int) (func() uthread.Step, replay.Backing) {
			// One root n/10 times: the first traversal sizes the
			// walk's queue, and the rest reuse it.
			sources := make([]int, n/10)
			for i := range sources {
				sources[i] = 1
			}
			b := NewBFS(g, sources, 40, 10)
			return func() uthread.Step { return b.Body(0, 0, 1) }, b.Backing()
		}},
	} {
		if few, many := threadAllocs(c.build(100)), threadAllocs(c.build(400)); many > few {
			t.Errorf("%s: 100 iterations allocate %v objects, 400 allocate %v", c.name, few, many)
		}
	}
}

func TestBloomLookupsMatchReference(t *testing.T) {
	b := NewBloom(1<<16, 4, 500, 400, 100)
	acc, work := runFunctional(t, b.Body(0, 0, 1), b.Backing().(interface{ ReadLine(uint64) []byte }))
	if b.Lookups != 400 {
		t.Errorf("lookups = %d, want 400", b.Lookups)
	}
	if acc != 400*4 {
		t.Errorf("accesses = %d, want 1600", acc)
	}
	if work != 400*100 {
		t.Errorf("work = %d", work)
	}
	if b.Positives != b.ReferencePositives() {
		t.Errorf("device-path positives %d != reference %d", b.Positives, b.ReferencePositives())
	}
}

func TestBloomPresentKeysAlwaysHit(t *testing.T) {
	// All even-indexed lookups are keys that were inserted, so at least
	// half the lookups must be positive; absent keys mostly miss.
	b := NewBloom(1<<18, 4, 200, 1000, 0)
	runFunctional(t, b.Body(0, 0, 1), b.Backing().(interface{ ReadLine(uint64) []byte }))
	if b.Positives < 500 {
		t.Errorf("positives = %d, want >= 500 (inserted keys must hit)", b.Positives)
	}
	// With 200 keys in 256Kib the false-positive rate is tiny.
	if b.Positives > 520 {
		t.Errorf("positives = %d, false-positive rate implausibly high", b.Positives)
	}
}

func TestBloomReset(t *testing.T) {
	b := NewBloom(1<<12, 4, 10, 20, 0)
	runFunctional(t, b.Body(0, 0, 1), b.Backing().(interface{ ReadLine(uint64) []byte }))
	b.Reset()
	if b.Positives != 0 || b.Lookups != 0 {
		t.Error("reset did not clear counters")
	}
}

func TestBloomBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-multiple-of-512 bits did not panic")
		}
	}()
	NewBloom(100, 4, 10, 10, 0)
}

// Property: a key inserted into the filter is always reported present.
func TestBloomNoFalseNegativesProperty(t *testing.T) {
	b := NewBloom(1<<14, 4, 300, 0, 0)
	pos := make([]uint64, b.KHash)
	f := func(k uint16) bool {
		key := presentKey(int(k) % 300)
		for _, p := range b.probePositions(key, pos) {
			if b.bitArray[p/8]&(1<<(p%8)) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- memcached ---

func TestMemcachedValuesVerify(t *testing.T) {
	m := NewMemcached(256, 4, 300, 100)
	acc, _ := runFunctional(t, m.Body(0, 0, 1), m.Backing().(interface{ ReadLine(uint64) []byte }))
	if m.Lookups != 300 || m.Hits != 300 || m.BadValues != 0 {
		t.Errorf("lookups=%d hits=%d bad=%d, want 300/300/0", m.Lookups, m.Hits, m.BadValues)
	}
	if acc != 300*4 {
		t.Errorf("accesses = %d, want 1200", acc)
	}
}

func TestMemcachedPerCoreMirroring(t *testing.T) {
	m := NewMemcached(64, 4, 50, 0)
	for core := 0; core < 3; core++ {
		m.Reset()
		runFunctional(t, m.Body(core, 0, 1), m.Backing().(interface{ ReadLine(uint64) []byte }))
		if m.BadValues != 0 {
			t.Errorf("core %d: %d bad values", core, m.BadValues)
		}
	}
}

func TestMemcachedThreadPartition(t *testing.T) {
	m := NewMemcached(64, 4, 101, 0)
	for tid := 0; tid < 4; tid++ {
		runFunctional(t, m.Body(0, tid, 4), m.Backing().(interface{ ReadLine(uint64) []byte }))
	}
	if m.Lookups != 101 || m.BadValues != 0 {
		t.Errorf("lookups=%d bad=%d, want 101/0", m.Lookups, m.BadValues)
	}
}

// --- kronecker + BFS ---

func TestKroneckerShape(t *testing.T) {
	g := NewKronecker(8, 16, 1)
	if g.V != 256 {
		t.Fatalf("V = %d", g.V)
	}
	if g.Edges() != 2*16*256 {
		t.Errorf("edges = %d, want %d (undirected doubling)", g.Edges(), 2*16*256)
	}
	// CSR consistency.
	if int(g.RowStart[g.V]) != len(g.Adj) {
		t.Errorf("RowStart[V] = %d, len(Adj) = %d", g.RowStart[g.V], len(g.Adj))
	}
	for v := 0; v < g.V; v++ {
		if g.RowStart[v] > g.RowStart[v+1] {
			t.Fatalf("RowStart not monotone at %d", v)
		}
	}
	for _, n := range g.Adj {
		if int(n) >= g.V {
			t.Fatalf("neighbor %d out of range", n)
		}
	}
}

func TestKroneckerDeterministic(t *testing.T) {
	a := NewKronecker(7, 8, 42)
	b := NewKronecker(7, 8, 42)
	if len(a.Adj) != len(b.Adj) {
		t.Fatal("sizes differ")
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
	c := NewKronecker(7, 8, 43)
	same := len(a.Adj) == len(c.Adj)
	if same {
		identical := true
		for i := range a.Adj {
			if a.Adj[i] != c.Adj[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different seeds produced identical graphs")
		}
	}
}

func TestKroneckerSkewedDegrees(t *testing.T) {
	// R-MAT graphs are heavy-tailed: the max degree far exceeds the
	// mean.
	g := NewKronecker(10, 16, 7)
	mean := float64(g.Edges()) / float64(g.V)
	max := 0
	for v := 0; v < g.V; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	if float64(max) < 4*mean {
		t.Errorf("max degree %d vs mean %.1f: not heavy-tailed", max, mean)
	}
}

func TestBFSDeviceMatchesFunctional(t *testing.T) {
	g := NewKronecker(8, 8, 3)
	b := NewBFS(g, []int{1, 2, 3, 4}, 40, 100)
	if b.ExpectedVisitsPerCore() == 0 || b.Batches() == 0 {
		t.Fatal("functional pass found nothing to do")
	}
	// Re-run through the uthread body against the same backing: visits
	// must match the functional pass.
	for tid := 0; tid < 2; tid++ {
		runFunctional(t, b.Body(0, tid, 2), b.Backing().(interface{ ReadLine(uint64) []byte }))
	}
	if b.Visited != b.ExpectedVisitsPerCore() {
		t.Errorf("device-path visits %d != functional %d", b.Visited, b.ExpectedVisitsPerCore())
	}
}

func TestBFSBaselineTraceMatchesBodies(t *testing.T) {
	g := NewKronecker(8, 8, 5)
	b := NewBFS(g, []int{10, 20}, 30, 50)
	var tAcc, tWork int64
	for _, it := range b.BaselineTrace(0) {
		tAcc += int64(it.Reads)
		tWork += int64(it.WorkInstr)
	}
	var bAcc, bWork int64
	for tid := 0; tid < 2; tid++ {
		a, w := runFunctional(t, b.Body(0, tid, 2), b.Backing().(interface{ ReadLine(uint64) []byte }))
		bAcc += int64(a)
		bWork += w
	}
	if tAcc != bAcc || tWork != bWork {
		t.Errorf("trace (%d acc, %d work) != bodies (%d acc, %d work)", tAcc, tWork, bAcc, bWork)
	}
}

func TestBFSBatchesAtMostTwoLines(t *testing.T) {
	g := NewKronecker(9, 16, 11)
	b := NewBFS(g, []int{5}, 100, 10)
	for _, it := range b.BaselineTrace(0) {
		if it.Reads < 1 || it.Reads > 2 {
			t.Fatalf("batch of %d lines; BFS is limited to 2 (§V-D)", it.Reads)
		}
	}
}

func TestBFSTruncation(t *testing.T) {
	g := NewKronecker(8, 16, 9)
	small := NewBFS(g, []int{0}, 5, 10)
	if small.ExpectedVisitsPerCore() > 5 {
		t.Errorf("visits %d exceed budget 5", small.ExpectedVisitsPerCore())
	}
}

func TestBFSNames(t *testing.T) {
	g := NewKronecker(6, 4, 1)
	b := NewBFS(g, []int{0, 1}, 5, 10)
	if b.Name() != "bfs-s2" {
		t.Errorf("name = %q", b.Name())
	}
	if NewMicrobench(1, 200, 4).Name() != "ubench-w200-r4" {
		t.Error("microbench name wrong")
	}
	if NewBloom(512, 4, 1, 1, 1).Name() != "bloom-k4" {
		t.Error("bloom name wrong")
	}
	if NewMemcached(1, 4, 1, 1).Name() != "memcached-v4" {
		t.Error("memcached name wrong")
	}
}
