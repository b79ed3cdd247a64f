package workload

import (
	"fmt"

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
	G *Graph
	// Sources are the per-core traversal roots.
	Sources []int
	// MaxVisits truncates each traversal after this many vertices.
	MaxVisits int
	// WorkInstr is the benign work per batch.
	WorkInstr int

	// RecordTrees makes thread bodies capture the parent tree of every
	// traversal into Trees, for Graph500-style result validation.
	RecordTrees bool

	adj []byte

	// observed results
	Visited int     // vertices expanded across all traversals and cores
	Trees   []*Tree // captured when RecordTrees is set

	trace          []cpu.IterSpec
	expectedVisits int // per core
}

// NewBFS builds the benchmark over g. The baseline trace and expected
// visit counts are computed once by a functional traversal pass.
func NewBFS(g *Graph, sources []int, maxVisits, workInstr int) *BFS {
	b := &BFS{G: g, Sources: sources, MaxVisits: maxVisits, WorkInstr: workInstr, adj: g.adjBytes()}
	// Functional pass: direct reads, recording the batch shapes.
	var s bfsScratch
	read := b.directRead()
	onBatch := func(batchLines int) {
		b.trace = append(b.trace, cpu.IterSpec{Reads: batchLines, WorkInstr: workInstr})
	}
	for _, src := range sources {
		b.expectedVisits += b.traverse(&s, src, 0, read, onBatch, nil)
	}
	return b
}

// directRead returns a read function for functional traversals: it
// reads the adjacency lines straight from the dataset into one reused
// batch slice.
func (b *BFS) directRead() func([]uint64) [][]byte {
	backing := mirrorBacking{data: b.adj}
	var lines [2][]byte
	return func(addrs []uint64) [][]byte {
		for i, a := range addrs {
			lines[i] = backing.ReadLine(a)
		}
		return lines[:len(addrs)]
	}
}

// TreeFor runs a functional traversal from src and returns its parent
// tree — the reference for validating device-run trees.
func (b *BFS) TreeFor(src int) *Tree {
	tree := newTree(src)
	b.traverse(&bfsScratch{}, src, 0, b.directRead(), func(int) {}, tree)
	return tree
}

// Name implements core.Workload.
func (b *BFS) Name() string { return fmt.Sprintf("bfs-s%d", len(b.Sources)) }

// Backing exposes the adjacency array in every core region.
func (b *BFS) Backing() replay.Backing { return mirrorBacking{data: b.adj} }

// bfsScratch is a traversal's working memory, reused across the
// traversals of one thread (or of one functional pass): the visited
// marks, the frontier queue, and the addresses of the batch in flight.
type bfsScratch struct {
	visited []bool
	queue   []int
	addrs   [2]uint64
}

// traverse runs one truncated BFS from src, reading adjacency lines
// through read (device or direct) in batches of at most two lines, and
// invoking onBatch for every batch issued. It returns the number of
// vertices expanded. coreBase offsets device addresses into the calling
// core's region. s is the caller's scratch; traverse leaves its visited
// marks all clear again.
func (b *BFS) traverse(s *bfsScratch, src int, coreBase uint64, read func([]uint64) [][]byte, onBatch func(batchLines int), tree *Tree) int {
	g := b.G
	if s.visited == nil {
		s.visited = make([]bool, g.V)
	}
	visited := s.visited
	visited[src] = true
	queue := append(s.queue[:0], src)
	expanded := 0

	for head := 0; head < len(queue) && expanded < b.MaxVisits; head++ {
		u := queue[head]
		expanded++

		startB := 4 * int(g.RowStart[u]) // adjacency byte range of u
		endB := 4 * int(g.RowStart[u+1])
		if startB == endB {
			continue
		}
		firstLine := startB / LineSize
		lastLine := (endB - 1) / LineSize

		for line := firstLine; line <= lastLine; line += 2 {
			batch := 2
			if line+1 > lastLine {
				batch = 1
			}
			addrs := s.addrs[:batch]
			for i := range addrs {
				addrs[i] = coreBase + uint64(line+i)*LineSize
			}
			lines := read(addrs)
			onBatch(batch)

			// Decode the neighbors covered by these lines and enqueue
			// the unvisited ones.
			for i, data := range lines {
				lineBase := (line + i) * LineSize
				lo, hi := startB, endB
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
					if !visited[v] {
						visited[v] = true
						queue = append(queue, int(v))
						if tree != nil {
							tree.Parent[int(v)] = u
							tree.Depth[int(v)] = tree.Depth[u] + 1
						}
					}
				}
			}
		}
	}
	// Every vertex marked visited was queued, so clearing the queued
	// vertices' marks readies the scratch for the next traversal.
	for _, v := range queue {
		visited[v] = false
	}
	s.queue = queue
	return expanded
}

// Body implements core.Workload: thread threadID runs the traversals
// j ≡ threadID (mod threadsPerCore).
func (b *BFS) Body(coreID, threadID, threadsPerCore int) func(*uthread.API) {
	base := coreRegion(coreID)
	return func(a *uthread.API) {
		var s bfsScratch
		work := func(int) { a.Work(b.WorkInstr) }
		for j := threadID; j < len(b.Sources); j += threadsPerCore {
			var tree *Tree
			if b.RecordTrees {
				tree = newTree(b.Sources[j])
			}
			b.Visited += b.traverse(&s, b.Sources[j], base, a.AccessBatch, work, tree)
			if tree != nil {
				b.Trees = append(b.Trees, tree)
			}
		}
	}
}

// BaselineTrace implements core.Workload: the batch shapes recorded by
// the functional pass.
func (b *BFS) BaselineTrace(coreID int) []cpu.IterSpec { return b.trace }

// Reset clears observed counters between runs.
func (b *BFS) Reset() { b.Visited, b.Trees = 0, nil }

// ExpectedVisitsPerCore returns the ground-truth vertex expansions of
// one core's traversal set.
func (b *BFS) ExpectedVisitsPerCore() int { return b.expectedVisits }

// Batches returns the per-core device batch count (iterations of the
// benchmark loop).
func (b *BFS) Batches() int { return len(b.trace) }
