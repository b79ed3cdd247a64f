package uthread

import (
	"testing"
)

// script returns a step that makes reqs in order, then is done; it
// records the lines each step receives into got when got is not nil.
func script(got *[][][]byte, reqs ...Request) Step {
	return func(data [][]byte) (Request, bool) {
		if got != nil {
			*got = append(*got, data)
		}
		if len(reqs) == 0 {
			return Request{}, false
		}
		r := reqs[0]
		reqs = reqs[1:]
		return r, true
	}
}

// TestStepLifecycle: Start runs a step thread to its first request, and
// each Resume hands the step the answer to its previous request — the
// lines of an access, nil after work or a posted write — and returns
// its next, until the step is done.
func TestStepLifecycle(t *testing.T) {
	var got [][][]byte
	th := NewStep(3, script(&got,
		Request{Kind: KindWork, Instr: 100},
		Request{Kind: KindAccess, Addrs: []uint64{0x40, 0x80}},
		Request{Kind: KindWrite, Addrs: []uint64{0xC0}}))
	if th.ID() != 3 || th.Finished() {
		t.Fatalf("new thread: ID %d finished %v", th.ID(), th.Finished())
	}
	if r := th.Start(); r.Kind != KindWork || r.Instr != 100 {
		t.Fatalf("first request = %+v", r)
	}
	if r := th.Resume(nil); r.Kind != KindAccess || len(r.Addrs) != 2 {
		t.Fatalf("second request = %+v", r)
	}
	lines := [][]byte{make([]byte, 64), make([]byte, 64)}
	if r := th.Resume(lines); r.Kind != KindWrite {
		t.Fatalf("third request = %+v", r)
	}
	if r := th.Resume(nil); r.Kind != KindDone || !th.Finished() {
		t.Fatalf("final request = %+v finished=%v", r, th.Finished())
	}
	if len(got) != 4 || got[0] != nil || got[1] != nil || &got[2][1][0] != &lines[1][0] || got[3] != nil {
		t.Errorf("steps received %v", got)
	}
}

// TestResumeWithWrongLinesPanics: an access answered with the wrong
// number of lines, or any other request answered with lines, panics
// before the step runs.
func TestResumeWithWrongLinesPanics(t *testing.T) {
	for _, c := range []struct {
		first Request
		data  [][]byte
	}{
		{Request{Kind: KindAccess, Addrs: []uint64{0x40, 0x80}}, make([][]byte, 1)},
		{Request{Kind: KindAccess, Addrs: []uint64{0x40}}, nil},
		{Request{Kind: KindWork, Instr: 5}, make([][]byte, 1)},
		{Request{Kind: KindWrite, Addrs: []uint64{0x40}}, make([][]byte, 1)},
	} {
		var got [][][]byte
		th := NewStep(0, script(&got, c.first, Request{Kind: KindWork, Instr: 1}))
		th.Start()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v request resumed with %d lines did not panic", c.first.Kind, len(c.data))
				}
			}()
			th.Resume(c.data)
		}()
		if len(got) != 1 {
			t.Errorf("%v request: the step ran %d times, want only its start", c.first.Kind, len(got))
		}
	}
}

func TestThreadLifecycle(t *testing.T) {
	th := New(7, func(a *API) {
		a.Work(100)
		data := a.Access(0x40)
		if data[0] != 42 {
			t.Errorf("access returned %d, want 42", data[0])
		}
		a.Work(50)
	})
	if th.ID() != 7 {
		t.Errorf("ID = %d", th.ID())
	}

	r := th.Start()
	if r.Kind != KindWork || r.Instr != 100 {
		t.Fatalf("first request = %+v", r)
	}
	r = th.Resume(nil)
	if r.Kind != KindAccess || len(r.Addrs) != 1 || r.Addrs[0] != 0x40 {
		t.Fatalf("second request = %+v", r)
	}
	line := make([]byte, 64)
	line[0] = 42
	r = th.Resume([][]byte{line})
	if r.Kind != KindWork || r.Instr != 50 {
		t.Fatalf("third request = %+v", r)
	}
	r = th.Resume(nil)
	if r.Kind != KindDone || !th.Finished() {
		t.Fatalf("final request = %+v finished=%v", r, th.Finished())
	}
}

func TestAccessBatchOrder(t *testing.T) {
	addrs := []uint64{0x100, 0x140, 0x180, 0x1C0}
	th := New(0, func(a *API) {
		data := a.AccessBatch(addrs)
		for i := range data {
			if data[i][0] != byte(i) {
				t.Errorf("line %d has tag %d", i, data[i][0])
			}
		}
	})
	r := th.Start()
	if r.Kind != KindAccess || len(r.Addrs) != 4 {
		t.Fatalf("request = %+v", r)
	}
	lines := make([][]byte, 4)
	for i := range lines {
		lines[i] = make([]byte, 64)
		lines[i][0] = byte(i)
	}
	if r = th.Resume(lines); r.Kind != KindDone {
		t.Fatalf("want done, got %+v", r)
	}
}

func TestWriteBatch(t *testing.T) {
	th := New(0, func(a *API) {
		a.Write(0x40)
		a.WriteBatch([]uint64{0x80, 0xC0})
		a.WriteBatch(nil) // no-op
	})
	r := th.Start()
	if r.Kind != KindWrite || len(r.Addrs) != 1 || r.Addrs[0] != 0x40 {
		t.Fatalf("first request = %+v", r)
	}
	r = th.Resume(nil)
	if r.Kind != KindWrite || len(r.Addrs) != 2 {
		t.Fatalf("second request = %+v", r)
	}
	if r = th.Resume(nil); r.Kind != KindDone {
		t.Fatalf("final request = %+v", r)
	}
	if KindWrite.String() != "write" {
		t.Error("kind string wrong")
	}
}

func TestZeroWorkAndEmptyBatchAreNoOps(t *testing.T) {
	th := New(0, func(a *API) {
		a.Work(0)
		a.Work(-3)
		if got := a.AccessBatch(nil); got != nil {
			t.Errorf("empty batch returned %v", got)
		}
	})
	// The body must run straight to done without any intermediate
	// requests.
	if r := th.Start(); r.Kind != KindDone {
		t.Fatalf("request = %+v, want done", r)
	}
}

func TestDoubleStartPanics(t *testing.T) {
	th := NewStep(0, script(nil, Request{Kind: KindWork, Instr: 1}))
	th.Start()
	defer func() {
		if recover() == nil {
			t.Error("double start did not panic")
		}
	}()
	th.Start()
}

func TestResumeBeforeStartPanics(t *testing.T) {
	th := NewStep(0, script(nil))
	defer func() {
		if recover() == nil {
			t.Error("resume before start did not panic")
		}
	}()
	th.Resume(nil)
}

func TestResumeAfterDonePanics(t *testing.T) {
	th := NewStep(0, script(nil))
	if r := th.Start(); r.Kind != KindDone {
		t.Fatalf("request = %+v", r)
	}
	defer func() {
		if recover() == nil {
			t.Error("resume after done did not panic")
		}
	}()
	th.Resume(nil)
}

func TestKindString(t *testing.T) {
	if KindWork.String() != "work" || KindAccess.String() != "access" || KindDone.String() != "done" {
		t.Error("kind strings wrong")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind string = %q", Kind(99).String())
	}
}

func mkThreads(n int, iters int) []*Thread {
	threads := make([]*Thread, n)
	for i := range threads {
		reqs := make([]Request, iters)
		for j := range reqs {
			reqs[j] = Request{Kind: KindWork, Instr: 10}
		}
		threads[i] = NewStep(i, script(nil, reqs...))
	}
	return threads
}

func TestRoundRobinOrder(t *testing.T) {
	threads := mkThreads(3, 2)
	rr := NewRoundRobin(threads)
	reqs := map[*Thread]Request{}
	for _, th := range threads {
		reqs[th] = th.Start()
	}
	var order []int
	for {
		th := rr.Next()
		if th == nil {
			break
		}
		order = append(order, th.ID())
		reqs[th] = th.Resume(nil)
	}
	// Start consumed each thread's first request, so each is resumed
	// twice (second work, then done), in cyclic order.
	want := []int{0, 1, 2, 0, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if rr.Live() != 0 {
		t.Errorf("live = %d", rr.Live())
	}
}

func TestRoundRobinSkipsFinished(t *testing.T) {
	// Thread 1 finishes first; the ring must keep cycling 0 and 2.
	threads := []*Thread{
		NewStep(0, script(nil, Request{Kind: KindWork, Instr: 1}, Request{Kind: KindWork, Instr: 1})),
		NewStep(1, script(nil, Request{Kind: KindWork, Instr: 1})),
		NewStep(2, script(nil, Request{Kind: KindWork, Instr: 1}, Request{Kind: KindWork, Instr: 1})),
	}
	for _, th := range threads {
		th.Start()
	}
	rr := NewRoundRobin(threads)
	for {
		th := rr.Next()
		if th == nil {
			break
		}
		th.Resume(nil)
	}
	for _, th := range threads {
		if !th.Finished() {
			t.Errorf("thread %d not finished", th.ID())
		}
	}
}

func TestFIFO(t *testing.T) {
	f := NewFIFO()
	if f.Pop() != nil || f.Len() != 0 {
		t.Fatal("empty FIFO misbehaved")
	}
	a, b := NewStep(0, nil), NewStep(1, nil)
	f.Push(a)
	f.Push(b)
	if f.Len() != 2 {
		t.Errorf("len = %d", f.Len())
	}
	if f.Pop() != a || f.Pop() != b || f.Pop() != nil {
		t.Error("FIFO order violated")
	}
}
