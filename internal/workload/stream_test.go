package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sort"
	"testing"

	"repro/internal/replay"
	"repro/internal/uthread"
)

// streamCase is one workload under test: how to build it afresh, and
// what of its observed counters the digest covers.
type streamCase struct {
	name     string
	build    func() (body bodyFunc, backing replay.Backing, observed func(hash.Hash))
	wantHash string
}

// streamTuples are the (coreID, threadID, threadsPerCore) placements
// each workload's thread is digested at.
var streamTuples = [][3]int{{0, 0, 1}, {1, 2, 4}, {3, 1, 3}, {2, 4, 5}}

func writeInts(h hash.Hash, vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

// hashTrees digests recorded BFS trees after validating them against g.
func hashTrees(t *testing.T, h hash.Hash, g *Graph, trees []*Tree) {
	writeInts(h, len(trees))
	for _, tree := range trees {
		if err := tree.Validate(g); err != nil {
			t.Errorf("tree from %d invalid: %v", tree.Src, err)
		}
		vs := make([]int, 0, len(tree.Parent))
		for v := range tree.Parent {
			vs = append(vs, v)
		}
		sort.Ints(vs)
		writeInts(h, tree.Src, len(vs))
		for _, v := range vs {
			writeInts(h, v, tree.Parent[v], tree.Depth[v])
		}
	}
}

func streamCases(t *testing.T) []streamCase {
	return []streamCase{
		{"ubench", func() (bodyFunc, replay.Backing, func(hash.Hash)) {
			m := NewMicrobench(37, 150, 1)
			return m.Body, m.Backing(), func(hash.Hash) {}
		}, "4bae933286d2c026b9e75f118eb70bcc9fd092d55c801497672854d095f2dfaf"},
		{"ubench-rw-nowork", func() (bodyFunc, replay.Backing, func(hash.Hash)) {
			m := NewMicrobenchRW(23, 0, 3, 2)
			return m.Body, m.Backing(), func(hash.Hash) {}
		}, "55554514fcc4d1fe800637236a2aed696455723068d900e0d7c7bc47269d91e2"},
		{"ptrchase", func() (bodyFunc, replay.Backing, func(hash.Hash)) {
			p := NewPointerChase(61, 29, 40)
			return p.Body, p.Backing(), func(h hash.Hash) { writeInts(h, p.Hops) }
		}, "b2c18b1a8ea0c6fd7f5e2766d738cf31a137b8a12aadf3c86c16a709c22d9f53"},
		{"bloom", func() (bodyFunc, replay.Backing, func(hash.Hash)) {
			b := NewBloom(1<<13, 4, 120, 41, 70)
			return b.Body, b.Backing(), func(h hash.Hash) { writeInts(h, b.Positives, b.Lookups) }
		}, "61d98963541ac4748237dff1548385ddf4f82a6237ab537d6da5cef910fda054"},
		{"bloom-nowork", func() (bodyFunc, replay.Backing, func(hash.Hash)) {
			b := NewBloom(1<<12, 3, 50, 17, 0)
			return b.Body, b.Backing(), func(h hash.Hash) { writeInts(h, b.Positives, b.Lookups) }
		}, "806eb1fa74b009965fa1a248b5b1e4d98f39883a4e00f8c759f4c430e840fbdc"},
		{"memcached", func() (bodyFunc, replay.Backing, func(hash.Hash)) {
			m := NewMemcached(90, 4, 43, 60)
			return m.Body, m.Backing(), func(h hash.Hash) { writeInts(h, m.Hits, m.BadValues, m.Lookups) }
		}, "d068175e6389ee24110820e4a3aaf4b0456fbc06cd2f6c94ef18963466599aeb"},
		{"bfs", func() (bodyFunc, replay.Backing, func(hash.Hash)) {
			g := NewKronecker(8, 8, 13)
			b := NewBFS(g, []int{1, 7, 30, 64, 100, 200, 5}, 45, 80)
			b.RecordTrees = true
			return b.Body, b.Backing(), func(h hash.Hash) {
				writeInts(h, b.Visited)
				hashTrees(t, h, g, b.Trees)
			}
		}, "0e0820f9ea6c9c50f33424bfb0d277e79c3d73e5275ca7f126601390a6568cce"},
	}
}

// TestRequestStreamsPinned digests, in order, every request (kind, work
// instructions, addresses) each workload's thread makes under the
// instant executor at several placements, together with the counters
// the thread leaves behind (and, for BFS, its validated trees). The
// digests pin the request streams of the paper's five workloads, so a
// change to how a thread is expressed cannot change what it asks for.
func TestRequestStreamsPinned(t *testing.T) {
	for _, c := range streamCases(t) {
		h := sha256.New()
		for _, tu := range streamTuples {
			body, backing, observed := c.build()
			writeInts(h, tu[:]...)
			drive(t, body(tu[0], tu[1], tu[2]), backing, func(r uthread.Request) {
				writeInts(h, int(r.Kind), r.Instr, len(r.Addrs))
				for _, a := range r.Addrs {
					writeInts(h, int(a))
				}
			})
			observed(h)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.wantHash {
			t.Errorf("%s: request stream digest %s, want %s", c.name, got, c.wantHash)
		}
	}
}
