// Package replay implements the access-replay mechanism of the paper's
// device emulator (§IV-A).
//
// The paper's FPGA cannot serve requests from its slow on-board DRAM at
// emulation speed, so each experiment runs twice: a recording run
// captures the application's (address, data) access sequence, and the
// measured run streams that sequence ahead of the host's requests so
// responses can be produced with precisely controlled latency.
//
// The host CPU complicates replay in three ways the module must absorb:
// cache hits make recorded accesses never arrive (entries must be
// skippable), out-of-order execution reorders nearby accesses (skipped
// entries must be retained in a window in case they arrive late), and
// wrong-path speculation produces spurious requests that match nothing
// (they fall through to the on-demand module, which reads the dataset
// copy directly). This package reproduces that machinery: a sliding
// window over the recorded sequence with an age-based associative
// lookup.
//
// Lines are read-only views. A Backing hands out slices of its dataset
// (or the one shared zero line, ZeroLine) instead of copies, a
// Recording stores those same slices, and a Module returns them on a
// match. Nothing that receives a line may write into it.
package replay

import "fmt"

// LineSize is the bytes per recorded access (one cache line).
const LineSize = 64

// entryBytes is one recorded access's on-board DRAM footprint: its
// address and its line.
const entryBytes = 8 + LineSize

// zeroLine backs ZeroLine. It is never written.
var zeroLine [LineSize]byte

// ZeroLine returns the shared, read-only zero-filled line.
func ZeroLine() []byte { return zeroLine[:] }

// Entry is one recorded access: the address requested and the data that
// was returned. A nil Data means a zero-filled line (used by synthetic
// recordings to avoid materializing gigabytes of zeroes). Data is the
// line the backing delivered, usually a view of its dataset, and is
// never written.
type Entry struct {
	Addr uint64
	Data []byte
}

// Recording is an ordered access sequence captured during a recording
// run.
type Recording struct {
	Entries []Entry
}

// Record appends one access to the recording.
func (r *Recording) Record(addr uint64, data []byte) {
	r.Entries = append(r.Entries, Entry{Addr: addr, Data: data})
}

// Len returns the number of recorded accesses.
func (r *Recording) Len() int { return len(r.Entries) }

// Bytes returns the on-board DRAM footprint of the recording
// (address + line data per entry), used to size DMA preloads.
func (r *Recording) Bytes() int64 {
	return int64(len(r.Entries)) * entryBytes
}

// Synthetic builds a recording of n sequential fresh-cache-line
// accesses starting at base — the microbenchmark's access pattern
// ("we make each microbenchmark access go to a different cache line",
// §IV-C). Lines are zero-filled.
func Synthetic(base uint64, n int) *Recording {
	r := &Recording{Entries: make([]Entry, n)}
	for i := range r.Entries {
		r.Entries[i] = Entry{Addr: base + uint64(i)*LineSize}
	}
	return r
}

// Module is one replay module: it serves one core's requests from a
// recording, tolerating skipped, reordered, and missing accesses via a
// sliding window with age-based (oldest-first) associative lookup.
//
// The same recording can back several modules with different address
// offsets, reproducing the paper's trick of reusing one recorded
// sequence across cores ("after applying an address offset") to cut
// on-board DRAM requirements.
type Module struct {
	rec    *Recording
	offset uint64 // host address = recorded address + offset
	window int

	front     int    // index of the oldest entry still in the window
	matched   []bool // per-entry: consumed by a match
	highWater int    // one past the newest entry matched so far

	matches   uint64
	skips     uint64 // entries aged out without ever matching (cache hits)
	misses    uint64 // lookups that found no entry (spurious requests)
	reordered uint64 // matches that were not at the window front
}

// NewModule creates a replay module over rec with the given lookup
// window depth and per-core address offset.
func NewModule(rec *Recording, window int, offset uint64) *Module {
	if window <= 0 {
		panic(fmt.Sprintf("replay: window %d must be positive", window))
	}
	return &Module{
		rec:     rec,
		offset:  offset,
		window:  window,
		matched: make([]bool, len(rec.Entries)),
	}
}

// Lookup serves one host request. It returns the recorded line (the
// recording's own slice, or ZeroLine; read-only) and true on a match;
// (nil, false) means the request could not be matched within the
// window and must be served by the on-demand module.
func (m *Module) Lookup(hostAddr uint64) ([]byte, bool) {
	addr := hostAddr - m.offset

	// Search oldest-first (age-based lookup). The search spans two
	// window depths from the front: the retention window of skipped
	// entries kept for late reordered arrivals, plus the stream-ahead
	// window — the replay stream runs "well in advance of the request
	// from the host" (§IV-A), so entries just beyond the match point are
	// already buffered.
	limit := m.front + 2*m.window
	if limit > len(m.rec.Entries) {
		limit = len(m.rec.Entries)
	}
	for i := m.front; i < limit; i++ {
		if m.matched[i] || m.rec.Entries[i].Addr != addr {
			continue
		}
		m.matched[i] = true
		m.matches++
		if i != m.front {
			m.reordered++
		}
		if i+1 > m.highWater {
			m.highWater = i + 1
		}
		data := m.rec.Entries[i].Data
		m.advance()
		return line(data), true
	}
	m.misses++
	return nil, false
}

// advance slides the front past consumed entries. Entries that were
// never matched but have fallen a full window behind the newest match
// are aged out as skips (recorded accesses that became cache hits in the
// measured run). Skipped entries are deliberately retained until then so
// that reordered late arrivals still find them (§IV-A).
func (m *Module) advance() {
	for m.front < len(m.rec.Entries) {
		switch {
		case m.matched[m.front]:
			m.front++
		case m.highWater-m.front >= m.window:
			m.skips++
			m.front++
		default:
			return
		}
	}
}

// Drained reports whether every recorded entry has been either matched
// or aged out.
func (m *Module) Drained() bool {
	for i := m.front; i < len(m.rec.Entries); i++ {
		if !m.matched[i] {
			return false
		}
	}
	return true
}

// Remaining returns the number of entries not yet matched or aged out.
func (m *Module) Remaining() int {
	n := 0
	for i := m.front; i < len(m.rec.Entries); i++ {
		if !m.matched[i] {
			n++
		}
	}
	return n
}

// Matches returns successful window lookups.
func (m *Module) Matches() uint64 { return m.matches }

// Skips returns entries aged out unmatched.
func (m *Module) Skips() uint64 { return m.skips }

// Misses returns lookups that fell through to the on-demand module.
func (m *Module) Misses() uint64 { return m.misses }

// Reordered returns matches found behind the window front.
func (m *Module) Reordered() uint64 { return m.reordered }

// line expands nil entry data to the shared zero line.
func line(data []byte) []byte {
	if data == nil {
		return ZeroLine()
	}
	return data
}

// Recorder captures an access sequence during a recording run. It wraps
// a Backing (the authoritative dataset) and counts every read; when it
// has a Recording to fill it also appends the read there.
type Recorder struct {
	backing Backing
	rec     *Recording
	reads   int64
}

// Backing is an authoritative byte-addressable dataset, read at
// cache-line granularity. It stands in for the separate on-board DRAM
// holding "a copy of the dataset" (§IV-A). ReadLine returns a
// LineSize-byte line that may be a view of the dataset itself or
// ZeroLine, so the caller must never write into it; the backing never
// changes a line it has handed out.
type Backing interface {
	ReadLine(addr uint64) []byte
}

// NewRecorder wraps backing and records into rec. With a nil rec the
// recorder only counts: a run that records its own access sequence
// needs nothing of it but its size (see Bytes).
func NewRecorder(backing Backing, rec *Recording) *Recorder {
	return &Recorder{backing: backing, rec: rec}
}

// Recording returns the recording being captured (nil for a recorder
// that only counts).
func (r *Recorder) Recording() *Recording { return r.rec }

// Bytes returns the on-board DRAM footprint of the reads captured so
// far: what Recording.Bytes reports for the same sequence.
func (r *Recorder) Bytes() int64 { return r.reads * entryBytes }

// ReadLine reads from the backing store, counts the read and appends it
// to the recording, if any.
func (r *Recorder) ReadLine(addr uint64) []byte {
	data := r.backing.ReadLine(addr)
	r.reads++
	if r.rec != nil {
		r.rec.Record(addr, data)
	}
	return data
}

// ZeroBacking is a Backing whose every line is zero — sufficient for
// workloads whose control flow does not depend on the data read (the
// microbenchmark).
type ZeroBacking struct{}

// ReadLine returns the shared zero line.
func (ZeroBacking) ReadLine(uint64) []byte { return ZeroLine() }
