package workload

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/replay"
	"repro/internal/uthread"
)

// drainWalkScratches empties the walk-scratch pool and returns what it
// held.
func drainWalkScratches() []*walkScratch {
	var out []*walkScratch
	for {
		s, ok := walkScratches.Get().(*walkScratch)
		if !ok {
			return out
		}
		out = append(out, s)
	}
}

// dirtyScratches returns how many of the pool's scratches have a mark
// set anywhere in their capacity, draining the pool.
func dirtyScratches() (dirty, total int) {
	for _, s := range drainWalkScratches() {
		total++
		if slices.Contains(s.visited[:cap(s.visited)], true) {
			dirty++
		}
	}
	return dirty, total
}

// badLines is a backing whose every adjacency entry names a vertex far
// outside any graph, so a BFS step decoding it panics.
type badLines struct{}

func (badLines) ReadLine(uint64) []byte { return bytes.Repeat([]byte{0xff}, LineSize) }

// TestWalkScratchPoolStaysClean: the pool hands out scratch with every
// mark clear. Walks that end cleanly (a functional pass, a reference
// tree, eight threads of one core interleaved as a scheduler runs them)
// return clean scratch; a thread the run's teardown stops
// mid-traversal (uthread's Stop, as core's launch calls it) and a step
// that panics mid-traversal keep their marked scratch out of the pool.
func TestWalkScratchPoolStaysClean(t *testing.T) {
	g := NewKronecker(8, 8, 3)
	drainWalkScratches()

	b := NewBFS(g, []int{1, 7, 30, 64, 100, 200, 5, 9}, 40, 10)
	b.TreeFor(7)
	// Every thread starts before any finishes, so each walks on its own
	// scratch and eight go back to the pool (which, under the race
	// detector, drops a quarter of what it is given).
	ths := make([]*uthread.Thread, len(b.Sources))
	reqs := make([]uthread.Request, len(ths))
	for i := range ths {
		ths[i] = uthread.NewStep(i, b.Body(0, i, len(ths)))
		reqs[i] = ths[i].Start()
	}
	for live := len(ths); live > 0; {
		live = 0
		for i, th := range ths {
			switch reqs[i].Kind {
			case uthread.KindDone:
				continue
			case uthread.KindAccess:
				reqs[i] = th.Resume(readLines(b.Backing(), reqs[i].Addrs))
			default:
				reqs[i] = th.Resume(nil)
			}
			live++
		}
	}
	if b.Visited != b.ExpectedVisitsPerCore() {
		t.Errorf("threads expanded %d vertices, want %d", b.Visited, b.ExpectedVisitsPerCore())
	}
	if dirty, total := dirtyScratches(); dirty != 0 || total == 0 {
		t.Errorf("after clean walks the pool holds %d scratches, %d with marks set; want some, none marked", total, dirty)
	}

	// Stopped after its fifth batch's lines arrived, well inside its
	// first traversal's 40-vertex budget.
	th := uthread.NewStep(0, b.Body(0, 0, 1))
	for req, batches := th.Start(), 0; batches < 5; {
		switch req.Kind {
		case uthread.KindAccess:
			req = th.Resume(readLines(b.Backing(), req.Addrs))
			batches++
		case uthread.KindWork:
			req = th.Resume(nil)
		default:
			t.Fatalf("request %v after %d batches, want an access or work", req.Kind, batches)
		}
	}
	th.Stop()
	if dirty, _ := dirtyScratches(); dirty != 0 {
		t.Errorf("a thread stopped mid-traversal put %d marked scratches in the pool", dirty)
	}

	step := b.Body(0, 0, 1)
	req, _ := step(nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("decoding out-of-range vertices did not panic")
			}
		}()
		step(readLines(badLines{}, req.Addrs))
	}()
	if dirty, _ := dirtyScratches(); dirty != 0 {
		t.Errorf("a panicking step put %d marked scratches in the pool", dirty)
	}
}

func readLines(backing replay.Backing, addrs []uint64) [][]byte {
	lines := make([][]byte, len(addrs))
	for i, a := range addrs {
		lines[i] = backing.ReadLine(a)
	}
	return lines
}
