package replay

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Recording files carry the paper's record-run artifact: the exact
// (address, data) sequence the DMA engine preloads into on-board DRAM
// before a measured run (§IV-A). Persisting them reproduces the
// workflow of recording once and replaying across many measured
// configurations.
//
// Format (little-endian):
//
//	magic   [6]byte  "KUREC1"
//	count   uint64
//	entries count x { addr uint64, dataLen uint32, data [dataLen]byte }
//
// A dataLen of zero encodes a nil (zero-filled) line.
var recMagic = [6]byte{'K', 'U', 'R', 'E', 'C', '1'}

// WriteTo serializes the recording. It implements io.WriterTo.
func (r *Recording) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	count := func(k int, err error) error {
		n += int64(k)
		return err
	}
	if err := count(bw.Write(recMagic[:])); err != nil {
		return n, err
	}
	var buf [12]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(len(r.Entries)))
	if err := count(bw.Write(buf[:8])); err != nil {
		return n, err
	}
	for _, e := range r.Entries {
		if len(e.Data) != 0 && len(e.Data) != LineSize {
			return n, fmt.Errorf("replay: entry with %d-byte line (want 0 or %d)", len(e.Data), LineSize)
		}
		binary.LittleEndian.PutUint64(buf[:8], e.Addr)
		binary.LittleEndian.PutUint32(buf[8:], uint32(len(e.Data)))
		if err := count(bw.Write(buf[:])); err != nil {
			return n, err
		}
		if err := count(bw.Write(e.Data)); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadRecording deserializes a recording written by WriteTo. Every
// line's data is read into one slab, and each entry's Data is a
// capacity-clipped view of its line there.
func ReadRecording(r io.Reader) (*Recording, error) {
	br := bufio.NewReader(r)
	var magic [6]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("replay: reading magic: %w", err)
	}
	if magic != recMagic {
		return nil, fmt.Errorf("replay: bad magic %q", magic[:])
	}
	var buf [12]byte
	if _, err := io.ReadFull(br, buf[:8]); err != nil {
		return nil, fmt.Errorf("replay: reading count: %w", err)
	}
	n := binary.LittleEndian.Uint64(buf[:8])
	const maxEntries = 1 << 32
	if n > maxEntries {
		return nil, fmt.Errorf("replay: implausible entry count %d", n)
	}
	rec := &Recording{Entries: make([]Entry, n)}
	var slab []byte // the lines, in entry order
	for i := range rec.Entries {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("replay: reading entry %d: %w", i, err)
		}
		e := &rec.Entries[i]
		e.Addr = binary.LittleEndian.Uint64(buf[:8])
		switch dataLen := binary.LittleEndian.Uint32(buf[8:]); dataLen {
		case 0:
		case LineSize:
			slab = append(slab, make([]byte, LineSize)...)
			if _, err := io.ReadFull(br, slab[len(slab)-LineSize:]); err != nil {
				return nil, fmt.Errorf("replay: reading entry %d data: %w", i, err)
			}
			// A non-nil empty Data marks the entry as having a line;
			// the slab may still move, so the view is taken below.
			e.Data = slab[:0]
		default:
			return nil, fmt.Errorf("replay: entry %d has %d-byte line (want 0 or %d)", i, dataLen, LineSize)
		}
	}
	off := 0
	for i := range rec.Entries {
		if e := &rec.Entries[i]; e.Data != nil {
			e.Data = slab[off : off+LineSize : off+LineSize]
			off += LineSize
		}
	}
	return rec, nil
}
