package workload

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/replay"
	"repro/internal/uthread"
)

// Bloom is the Bloom-filter benchmark of §IV-C: "a high-performance
// implementation of lookups in a pre-populated dataset". The bit array
// is the core data structure stored on the microsecond device; each
// lookup probes KHash independent bit positions, and "the nature of the
// applications permits batches of four reads" (§V-D) — the probes issue
// as one batch before a single context switch.
type Bloom struct {
	// The filter the lookups probe, shared read-only with any other
	// Bloom built over it.
	*BloomDataset
	// LookupsPerCore is the per-core lookup count, split across threads.
	LookupsPerCore int
	// WorkInstr is the benign work per lookup that replaces the
	// application's post-access computation (§IV-C).
	WorkInstr int

	// observed results, accumulated by thread bodies (the simulation is
	// single-threaded, so plain fields are race-free)
	Positives int
	Lookups   int
}

// BloomDataset is a populated filter: its geometry and the bit array
// stored on the device. Nothing writes the bit array once it is built,
// so one dataset may back any number of Bloom workloads.
type BloomDataset struct {
	// Bits is the filter size in bits (a multiple of 512, one line = 512
	// bits).
	Bits uint64
	// KHash is the number of hash probes per lookup (4 in the paper's
	// batching).
	KHash int

	keys     int // populated keys
	bitArray []byte
}

// NewBloom builds a filter with nKeys inserted and the given geometry.
// All hashing is deterministic, so runs are reproducible.
func NewBloom(bits uint64, kHash, nKeys, lookupsPerCore, workInstr int) *Bloom {
	return NewBloomDataset(bits, kHash, nKeys).Workload(lookupsPerCore, workInstr)
}

// NewBloomDataset builds the bit array of a filter with nKeys inserted
// and the given geometry.
func NewBloomDataset(bits uint64, kHash, nKeys int) *BloomDataset {
	if bits%512 != 0 || bits == 0 {
		panic(fmt.Sprintf("workload: bloom bits %d must be a positive multiple of 512", bits))
	}
	d := &BloomDataset{Bits: bits, KHash: kHash, keys: nKeys, bitArray: make([]byte, bits/8)}
	pos := make([]uint64, kHash)
	for k := 0; k < nKeys; k++ {
		for _, p := range d.probePositions(presentKey(k), pos) {
			d.bitArray[p/8] |= 1 << (p % 8)
		}
	}
	return d
}

// Workload returns a Bloom lookup benchmark over the dataset, with its
// own observed counters.
func (d *BloomDataset) Workload(lookupsPerCore, workInstr int) *Bloom {
	return &Bloom{BloomDataset: d, LookupsPerCore: lookupsPerCore, WorkInstr: workInstr}
}

// presentKey and absentKey generate disjoint key universes: lookups of
// presentKey(i<keys) must hit; absentKey lookups are true negatives
// (modulo false positives).
func presentKey(i int) uint64 { return uint64(i)*2 + 1 }
func absentKey(i int) uint64  { return uint64(i)*2 + 2 }

// probePositions writes the KHash bit positions of a key into pos (of
// length KHash) via double hashing (the standard Kirsch-Mitzenmacher
// construction) and returns it.
func (d *BloomDataset) probePositions(key uint64, pos []uint64) []uint64 {
	h1 := splitmix64(key)
	h2 := splitmix64(h1) | 1
	for i := range pos {
		pos[i] = (h1 + uint64(i)*h2) % d.Bits
	}
	return pos
}

// splitmix64 is a small deterministic mixer (public-domain SplitMix64).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Name implements core.Workload.
func (b *Bloom) Name() string { return fmt.Sprintf("bloom-k%d", b.KHash) }

// Backing exposes the bit array in every core region.
func (d *BloomDataset) Backing() replay.Backing { return mirrorBacking{data: d.bitArray} }

// lookupKey returns the key probed by a core's i-th lookup: alternating
// present and absent keys, spread deterministically.
func (b *Bloom) lookupKey(i int) uint64 {
	if i%2 == 0 {
		return presentKey(int(splitmix64(uint64(i)) % uint64(b.keys)))
	}
	return absentKey(i)
}

// testBit checks a probe position against the fetched line.
func testBit(line []byte, pos uint64) bool {
	bit := pos % 512
	return line[bit/8]&(1<<(bit%8)) != 0
}

// Body implements core.Workload: thread threadID performs the lookups
// i ≡ threadID (mod threadsPerCore) of its core, one access batch of
// KHash probes each. The step that receives a lookup's lines tests its
// bits, counts the result and asks for the lookup's work.
func (b *Bloom) Body(coreID, threadID, threadsPerCore int) uthread.Step {
	base := coreRegion(coreID)
	addrs := make([]uint64, b.KHash)
	pos := make([]uint64, b.KHash)
	i, probing := threadID, false // the next lookup; whether pos awaits its lines
	return func(lines [][]byte) (uthread.Request, bool) {
		for {
			if probing {
				probing = false
				maybe := true
				for j, p := range pos {
					if !testBit(lines[j], p) {
						maybe = false
					}
				}
				if maybe {
					b.Positives++
				}
				b.Lookups++
				if b.WorkInstr > 0 {
					return uthread.Request{Kind: uthread.KindWork, Instr: b.WorkInstr}, true
				}
			}
			if i >= b.LookupsPerCore {
				return uthread.Request{}, false
			}
			b.probePositions(b.lookupKey(i), pos)
			i += threadsPerCore
			for j, p := range pos {
				addrs[j] = base + (p/512)*LineSize
			}
			probing = true
			if len(addrs) > 0 {
				return uthread.Request{Kind: uthread.KindAccess, Addrs: addrs}, true
			}
		}
	}
}

// BaselineTrace implements core.Workload: one iteration per lookup with
// KHash independent reads.
func (b *Bloom) BaselineTrace(coreID int) []cpu.IterSpec {
	return cpu.UniformTrace(b.LookupsPerCore, b.KHash, b.WorkInstr)
}

// Reset clears observed counters between runs.
func (b *Bloom) Reset() { b.Positives, b.Lookups = 0, 0 }

// ReferencePositives computes the expected positive count for one core's
// lookup sequence directly against the bit array (ground truth for
// tests).
func (b *Bloom) ReferencePositives() int {
	n := 0
	pos := make([]uint64, b.KHash)
	for i := 0; i < b.LookupsPerCore; i++ {
		maybe := true
		for _, p := range b.probePositions(b.lookupKey(i), pos) {
			if b.bitArray[p/8]&(1<<(p%8)) == 0 {
				maybe = false
			}
		}
		if maybe {
			n++
		}
	}
	return n
}
