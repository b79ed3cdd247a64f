package workload

import "repro/internal/replay"

// coreRegionBits is the width of a core's private device address range;
// the emulator steers requests to per-core replay modules by range
// (§IV-A).
const coreRegionBits = 40

// mirrorBacking exposes one dataset identically in every core's address
// region — the simulation analogue of the paper's trick of reusing one
// recorded sequence across cores after applying an address offset
// (§IV-A), which lets every core traverse the same data without
// multiplying on-board DRAM.
type mirrorBacking struct {
	data []byte
}

var _ replay.Backing = mirrorBacking{}

// ReadLine returns the 64-byte line at addr's offset within its core
// region as a read-only view of the dataset. Only a partial tail line
// is copied (zero-padded); out-of-range reads return the shared zero
// line.
func (m mirrorBacking) ReadLine(addr uint64) []byte {
	off := (addr & (1<<coreRegionBits - 1)) &^ (LineSize - 1)
	switch n := uint64(len(m.data)); {
	case off+LineSize <= n:
		return m.data[off : off+LineSize : off+LineSize]
	case off < n:
		out := make([]byte, LineSize)
		copy(out, m.data[off:])
		return out
	}
	return replay.ZeroLine()
}
