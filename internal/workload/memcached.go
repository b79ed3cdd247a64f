package workload

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/replay"
	"repro/internal/uthread"
)

// Memcached is the key-value-store benchmark of §IV-C: the lookup path
// of an in-memory cache. Following the paper's methodology, only the
// main data structure — the value storage — lives on the microsecond
// device; the hash index is a hot auxiliary structure kept in DRAM
// ("hot data structures ... are all placed in the main memory", §IV-C).
// A hit retrieves a value spanning ValueLines cache lines: "value
// retrieval can span multiple cache lines, resulting in independent
// memory accesses that can overlap" (§V-B) — the batch-of-four of Fig 10.
type Memcached struct {
	// The store the lookups read, shared read-only with any other
	// Memcached built over it.
	*MemcachedDataset
	// LookupsPerCore is the per-core lookup count, split across threads.
	LookupsPerCore int
	// WorkInstr is the benign work per lookup.
	WorkInstr int

	// observed results
	Hits      int
	BadValues int // value contents that failed verification
	Lookups   int
}

// MemcachedDataset is a store's contents: its shape and the value arena
// stored on the device. Nothing writes the arena once it is built, so
// one dataset may back any number of Memcached workloads.
type MemcachedDataset struct {
	// Items is the number of stored key-value pairs.
	Items int
	// ValueLines is the cache lines per value (4 in the paper's
	// batching).
	ValueLines int

	values []byte // the device-resident value arena
}

// NewMemcached builds a store with deterministic contents: item k's
// value is ValueLines lines, each line tagged with (k, lineIndex) so
// reads are verifiable.
func NewMemcached(items, valueLines, lookupsPerCore, workInstr int) *Memcached {
	return NewMemcachedDataset(items, valueLines).Workload(lookupsPerCore, workInstr)
}

// NewMemcachedDataset builds the value arena NewMemcached describes.
func NewMemcachedDataset(items, valueLines int) *MemcachedDataset {
	d := &MemcachedDataset{Items: items, ValueLines: valueLines, values: make([]byte, items*valueLines*LineSize)}
	for k := 0; k < items; k++ {
		for l := 0; l < valueLines; l++ {
			off := (k*valueLines + l) * LineSize
			binary.LittleEndian.PutUint64(d.values[off:], uint64(k))
			binary.LittleEndian.PutUint64(d.values[off+8:], uint64(l))
		}
	}
	return d
}

// Workload returns a Memcached lookup benchmark over the dataset, with
// its own observed counters.
func (d *MemcachedDataset) Workload(lookupsPerCore, workInstr int) *Memcached {
	return &Memcached{MemcachedDataset: d, LookupsPerCore: lookupsPerCore, WorkInstr: workInstr}
}

// Name implements core.Workload.
func (m *Memcached) Name() string { return fmt.Sprintf("memcached-v%d", m.ValueLines) }

// Backing exposes the value arena in every core region.
func (d *MemcachedDataset) Backing() replay.Backing { return mirrorBacking{data: d.values} }

// valueAddr returns the device address of item k's first value line in
// a core's region — the hash-index lookup, performed in DRAM and
// therefore free on the device path.
func (m *Memcached) valueAddr(coreID, k int) uint64 {
	return coreRegion(coreID) + uint64(k*m.ValueLines)*LineSize
}

// memcachedSeed decorrelates the lookup stream from other workloads'
// use of the shared mixer.
const memcachedSeed = 0xA5A5A5A5

// lookupItem returns the item requested by a core's i-th lookup
// (a deterministic scrambled sequence standing in for the client's key
// stream).
func (m *Memcached) lookupItem(i int) int {
	return int(splitmix64(uint64(i)+memcachedSeed) % uint64(m.Items))
}

// Body implements core.Workload: thread threadID performs the lookups
// i ≡ threadID (mod threadsPerCore) of its core, one access batch of
// ValueLines lines each. The step that receives a value's lines
// verifies them, counts the result and asks for the lookup's work.
func (m *Memcached) Body(coreID, threadID, threadsPerCore int) uthread.Step {
	addrs := make([]uint64, m.ValueLines)
	i, k, reading := threadID, 0, false // the next lookup; the item whose value awaits its lines
	return func(lines [][]byte) (uthread.Request, bool) {
		for {
			if reading {
				reading = false
				ok := true
				for l, line := range lines {
					if binary.LittleEndian.Uint64(line) != uint64(k) ||
						binary.LittleEndian.Uint64(line[8:]) != uint64(l) {
						ok = false
					}
				}
				if ok {
					m.Hits++
				} else {
					m.BadValues++
				}
				m.Lookups++
				if m.WorkInstr > 0 {
					return uthread.Request{Kind: uthread.KindWork, Instr: m.WorkInstr}, true
				}
			}
			if i >= m.LookupsPerCore {
				return uthread.Request{}, false
			}
			k = m.lookupItem(i)
			i += threadsPerCore
			base := m.valueAddr(coreID, k)
			for l := range addrs {
				addrs[l] = base + uint64(l)*LineSize
			}
			reading = true
			if len(addrs) > 0 {
				return uthread.Request{Kind: uthread.KindAccess, Addrs: addrs}, true
			}
		}
	}
}

// BaselineTrace implements core.Workload.
func (m *Memcached) BaselineTrace(coreID int) []cpu.IterSpec {
	return cpu.UniformTrace(m.LookupsPerCore, m.ValueLines, m.WorkInstr)
}

// Reset clears observed counters between runs.
func (m *Memcached) Reset() { m.Hits, m.BadValues, m.Lookups = 0, 0, 0 }
