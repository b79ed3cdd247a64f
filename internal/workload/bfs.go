package workload

import (
	"fmt"
	"sync"

	"repro/internal/cpu"
	"repro/internal/replay"
	"repro/internal/uthread"
)

// Tree is a BFS parent tree, the artifact Graph500's result-validation
// kernel checks. Recording trees during device runs lets tests verify
// the traversal end-to-end: any corruption in the simulated device path
// would produce an invalid tree.
type Tree struct {
	Src    int
	Parent map[int]int
	Depth  map[int]int
}

func newTree(src int) *Tree {
	return &Tree{Src: src, Parent: map[int]int{src: src}, Depth: map[int]int{src: 0}}
}

// Validate performs the Graph500-style checks against the graph: the
// root is its own parent at depth zero; every vertex's parent is in the
// tree one level up; and every tree edge exists in the graph.
func (t *Tree) Validate(g *Graph) error {
	if t.Parent[t.Src] != t.Src || t.Depth[t.Src] != 0 {
		return fmt.Errorf("bfs: root %d has parent %d depth %d", t.Src, t.Parent[t.Src], t.Depth[t.Src])
	}
	for v, parent := range t.Parent {
		if v == t.Src {
			continue
		}
		pd, ok := t.Depth[parent]
		if !ok {
			return fmt.Errorf("bfs: vertex %d has parent %d outside the tree", v, parent)
		}
		if t.Depth[v] != pd+1 {
			return fmt.Errorf("bfs: vertex %d at depth %d under parent at depth %d", v, t.Depth[v], pd)
		}
		found := false
		for i := g.RowStart[parent]; i < g.RowStart[parent+1]; i++ {
			if int(g.Adj[i]) == v {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("bfs: tree edge %d->%d not in graph", parent, v)
		}
	}
	return nil
}

// BFS is the Graph500 breadth-first-search benchmark of §IV-C. The CSR
// adjacency array is the core data structure on the microsecond device;
// the row index, frontier queue, and visited map are hot auxiliary
// structures in DRAM. Adjacency lines of the current vertex are fetched
// in batches of at most two: "inherent data dependencies" (a vertex's
// neighbors must be read before they can be explored) limit BFS to
// 2-read batches (§V-D).
//
// Each core runs a fixed set of truncated traversals (source vertices
// with a visit budget), so a core's total work is independent of the
// thread count; threads split the traversals round-robin. This mirrors
// Graph500's many-roots methodology while keeping runs comparable
// across thread counts.
type BFS struct {
	// The graph, traversal set and functional pass the threads run
	// against, shared read-only with any other BFS built over it.
	*BFSInput

	// RecordTrees makes thread bodies capture the parent tree of every
	// traversal into Trees, for Graph500-style result validation.
	RecordTrees bool

	// observed results
	Visited int     // vertices expanded across all traversals and cores
	Trees   []*Tree // captured when RecordTrees is set
}

// BFSInput is a BFS benchmark's prepared input: the graph and its
// traversal set, the adjacency array's device image, and the baseline
// trace and expected visit count of a functional traversal pass.
// Nothing writes it once it is built, so one input may back any number
// of BFS workloads.
type BFSInput struct {
	G *Graph
	// Sources are the per-core traversal roots.
	Sources []int
	// MaxVisits truncates each traversal after this many vertices.
	MaxVisits int
	// WorkInstr is the benign work per batch.
	WorkInstr int

	adj            []byte
	trace          []cpu.IterSpec
	expectedVisits int // per core
}

// NewBFS builds the benchmark over g. The baseline trace and expected
// visit counts are computed once by a functional traversal pass.
func NewBFS(g *Graph, sources []int, maxVisits, workInstr int) *BFS {
	return NewBFSInput(g, sources, maxVisits, workInstr).Workload()
}

// NewBFSInput prepares the input of a BFS benchmark over g: it encodes
// the adjacency array and runs the functional pass, direct reads that
// record the batch shapes.
func NewBFSInput(g *Graph, sources []int, maxVisits, workInstr int) *BFSInput {
	in := &BFSInput{G: g, Sources: sources, MaxVisits: maxVisits, WorkInstr: workInstr, adj: g.adjBytes()}
	w := &bfsWalk{b: in}
	onBatch := func(batchLines int) {
		in.trace = append(in.trace, cpu.IterSpec{Reads: batchLines, WorkInstr: workInstr})
	}
	for _, src := range sources {
		in.expectedVisits += in.traverse(w, src, onBatch, nil)
	}
	w.release()
	return in
}

// Workload returns a BFS benchmark over the input, with its own
// observed results.
func (in *BFSInput) Workload() *BFS { return &BFS{BFSInput: in} }

// traverse runs one truncated BFS from src to completion, reading its
// adjacency lines straight from the dataset and invoking onBatch for
// every batch issued. It returns the number of vertices expanded.
func (in *BFSInput) traverse(w *bfsWalk, src int, onBatch func(batchLines int), tree *Tree) int {
	backing := mirrorBacking{data: in.adj}
	var lines [2][]byte
	w.start(src, tree)
	for addrs := w.next(); addrs != nil; addrs = w.next() {
		for i, a := range addrs {
			lines[i] = backing.ReadLine(a)
		}
		w.deliver(lines[:len(addrs)])
		onBatch(len(addrs))
	}
	return w.expanded
}

// TreeFor runs a functional traversal from src and returns its parent
// tree — the reference for validating device-run trees.
func (in *BFSInput) TreeFor(src int) *Tree {
	tree := newTree(src)
	w := &bfsWalk{b: in}
	in.traverse(w, src, func(int) {}, tree)
	w.release()
	return tree
}

// Name implements core.Workload.
func (b *BFS) Name() string { return fmt.Sprintf("bfs-s%d", len(b.Sources)) }

// Backing exposes the adjacency array in every core region.
func (in *BFSInput) Backing() replay.Backing { return mirrorBacking{data: in.adj} }

// bfsWalk is one truncated BFS at a time as a resumable cursor: start
// begins a traversal, next returns the addresses of its next batch of
// at most two adjacency lines, and deliver decodes that batch's lines,
// queueing the unvisited neighbors. The functional pass and a thread's
// step both drive it, so the traversal exists once. Its scratch and
// batch addresses are reused across the traversals of one thread (or
// of one functional pass).
type bfsWalk struct {
	b        *BFSInput
	coreBase uint64 // offsets device addresses into the walking core's region
	tree     *Tree  // the traversal's parent tree, if recorded

	*walkScratch // taken by the first start, handed back by release
	addrs        [2]uint64

	head     int // queue index of the next vertex to expand
	expanded int // vertices expanded so far

	u              int // the vertex being expanded
	startB, endB   int // u's adjacency byte range
	line, lastLine int // u's next adjacency line to read, and its last
}

// walkScratch is a walk's working memory: its visited marks, all clear
// whenever no traversal is under way, and its frontier queue.
type walkScratch struct {
	visited []bool
	queue   []int
}

// walkScratches recycles walk scratch across the threads and cells of
// a process, as the engine's scratch pool does. It holds plain data
// with no callbacks, so nothing ties a scratch to one run. A walk hands
// its scratch back only after its last traversal ended, which leaves
// every mark clear; a walk abandoned mid-traversal (a thread stopped by
// a run's teardown, a panicking step) keeps its marked scratch out of
// the pool.
var walkScratches sync.Pool

// start begins a traversal from src, recording its parent tree into
// tree when that is not nil.
func (w *bfsWalk) start(src int, tree *Tree) {
	if w.walkScratch == nil {
		v := w.b.G.V
		if s, ok := walkScratches.Get().(*walkScratch); ok && cap(s.visited) >= v {
			s.visited = s.visited[:v]
			w.walkScratch = s
		} else {
			w.walkScratch = &walkScratch{visited: make([]bool, v)}
		}
	}
	w.visited[src] = true
	w.queue = append(w.queue[:0], src)
	w.tree = tree
	w.head, w.expanded = 0, 0
	w.line, w.lastLine = 0, -1
}

// release returns the walk's scratch to walkScratches. Call it only
// when next has ended the last traversal, which cleared its marks.
func (w *bfsWalk) release() {
	if w.walkScratch != nil {
		walkScratches.Put(w.walkScratch)
		w.walkScratch = nil
	}
}

// next returns the addresses of the traversal's next batch, valid until
// the following call, or nil once the traversal has expanded its visit
// budget or run out of frontier. The traversal then leaves its visited
// marks all clear again.
func (w *bfsWalk) next() []uint64 {
	g := w.b.G
	for w.line > w.lastLine {
		if w.head >= len(w.queue) || w.expanded >= w.b.MaxVisits {
			// Every vertex marked visited was queued, so clearing the
			// queued vertices' marks readies the walk for the next
			// traversal.
			for _, v := range w.queue {
				w.visited[v] = false
			}
			return nil
		}
		w.u = w.queue[w.head]
		w.head++
		w.expanded++
		w.startB = 4 * int(g.RowStart[w.u])
		w.endB = 4 * int(g.RowStart[w.u+1])
		if w.startB != w.endB {
			w.line, w.lastLine = w.startB/LineSize, (w.endB-1)/LineSize
		}
	}
	batch := 2
	if w.line+1 > w.lastLine {
		batch = 1
	}
	addrs := w.addrs[:batch]
	for i := range addrs {
		addrs[i] = w.coreBase + uint64(w.line+i)*LineSize
	}
	return addrs
}

// deliver decodes the neighbors covered by the lines of the batch next
// returned and queues the unvisited ones.
func (w *bfsWalk) deliver(lines [][]byte) {
	for i, data := range lines {
		lineBase := (w.line + i) * LineSize
		lo, hi := w.startB, w.endB
		if lineBase > lo {
			lo = lineBase
		}
		if lineBase+LineSize < hi {
			hi = lineBase + LineSize
		}
		for off := lo; off < hi; off += 4 {
			rel := off - lineBase
			v := uint32(data[rel]) | uint32(data[rel+1])<<8 |
				uint32(data[rel+2])<<16 | uint32(data[rel+3])<<24
			if !w.visited[v] {
				w.visited[v] = true
				w.queue = append(w.queue, int(v))
				if w.tree != nil {
					w.tree.Parent[int(v)] = w.u
					w.tree.Depth[int(v)] = w.tree.Depth[w.u] + 1
				}
			}
		}
	}
	w.line += 2
}

// Body implements core.Workload: thread threadID runs the traversals
// j ≡ threadID (mod threadsPerCore). The step that receives a batch's
// lines decodes them and asks for the batch's work; the step after
// issues the next batch, moving on to the thread's next traversal when
// one ends.
func (b *BFS) Body(coreID, threadID, threadsPerCore int) uthread.Step {
	w := &bfsWalk{b: b.BFSInput, coreBase: coreRegion(coreID)}
	j, walking := threadID-threadsPerCore, false // the traversal under way
	return func(lines [][]byte) (uthread.Request, bool) {
		if lines != nil {
			w.deliver(lines)
			if b.WorkInstr > 0 {
				return uthread.Request{Kind: uthread.KindWork, Instr: b.WorkInstr}, true
			}
		}
		for {
			if walking {
				if addrs := w.next(); addrs != nil {
					return uthread.Request{Kind: uthread.KindAccess, Addrs: addrs}, true
				}
				b.Visited += w.expanded
				if w.tree != nil {
					b.Trees = append(b.Trees, w.tree)
				}
			}
			if j += threadsPerCore; j >= len(b.Sources) {
				w.release()
				return uthread.Request{}, false
			}
			var tree *Tree
			if b.RecordTrees {
				tree = newTree(b.Sources[j])
			}
			w.start(b.Sources[j], tree)
			walking = true
		}
	}
}

// BaselineTrace implements core.Workload: the batch shapes recorded by
// the functional pass.
func (in *BFSInput) BaselineTrace(coreID int) []cpu.IterSpec { return in.trace }

// Reset clears observed counters between runs.
func (b *BFS) Reset() { b.Visited, b.Trees = 0, nil }

// ExpectedVisitsPerCore returns the ground-truth vertex expansions of
// one core's traversal set.
func (in *BFSInput) ExpectedVisitsPerCore() int { return in.expectedVisits }

// Batches returns the per-core device batch count (iterations of the
// benchmark loop).
func (in *BFSInput) Batches() int { return len(in.trace) }
