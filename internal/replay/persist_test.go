package replay

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRecordingRoundTrip(t *testing.T) {
	rec := &Recording{}
	data := bytes.Repeat([]byte{7}, LineSize)
	rec.Record(0x1000, data)
	rec.Record(0x2040, nil) // zero line
	rec.Record(0xFFFFFFFFFFFFFFC0, data)

	var buf bytes.Buffer
	n, err := rec.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	got, err := ReadRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("round-trip len %d", got.Len())
	}
	if got.Entries[0].Addr != 0x1000 || !bytes.Equal(got.Entries[0].Data, data) {
		t.Errorf("entry 0 = %+v", got.Entries[0])
	}
	if got.Entries[1].Data != nil {
		t.Errorf("zero line not preserved as nil")
	}
	if got.Entries[2].Addr != 0xFFFFFFFFFFFFFFC0 {
		t.Errorf("entry 2 addr = %#x", got.Entries[2].Addr)
	}
}

func TestReadRecordingBadMagic(t *testing.T) {
	if _, err := ReadRecording(strings.NewReader("NOTMAGIC")); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestReadRecordingTruncated(t *testing.T) {
	rec := Synthetic(0, 5)
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{3, 7, 15, buf.Len() - 1} {
		if _, err := ReadRecording(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestWriteToRejectsBadLine(t *testing.T) {
	rec := &Recording{}
	rec.Record(0, []byte{1, 2, 3}) // not a full line
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err == nil {
		t.Error("short line accepted")
	}
}

func TestReadRecordingBadLineLength(t *testing.T) {
	// Hand-craft a file with an invalid data length.
	var buf bytes.Buffer
	buf.Write(recMagic[:])
	buf.Write([]byte{1, 0, 0, 0, 0, 0, 0, 0}) // count = 1
	buf.Write(make([]byte, 8))                // addr = 0
	buf.Write([]byte{3, 0, 0, 0, 1, 2, 3})    // dataLen = 3
	if _, err := ReadRecording(&buf); err == nil {
		t.Error("bad line length accepted")
	}
}

// Property: any synthetic or data-carrying recording round-trips
// identically and still replays in order.
func TestPersistProperty(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := int(size%50) + 1
		rng := rand.New(rand.NewSource(seed))
		rec := &Recording{}
		for i := 0; i < n; i++ {
			addr := uint64(i) * LineSize
			if rng.Intn(2) == 0 {
				rec.Record(addr, nil)
			} else {
				line := make([]byte, LineSize)
				rng.Read(line)
				rec.Record(addr, line)
			}
		}
		var buf bytes.Buffer
		if _, err := rec.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadRecording(&buf)
		if err != nil || got.Len() != n {
			return false
		}
		m := NewModule(got, 8, 0)
		for i := 0; i < n; i++ {
			data, ok := m.Lookup(uint64(i) * LineSize)
			if !ok {
				return false
			}
			want := rec.Entries[i].Data
			if want == nil {
				want = make([]byte, LineSize)
			}
			if !bytes.Equal(data, want) {
				return false
			}
		}
		return m.Drained()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestReadRecordingOneSlab: the lines of a recording read back are
// capacity-clipped views into one slab, so reading a thousand of them
// takes a handful of allocations rather than one per line.
func TestReadRecordingOneSlab(t *testing.T) {
	rec := &Recording{}
	for i := 0; i < 1000; i++ {
		var data []byte
		if i%10 != 0 { // every tenth entry is a nil zero line
			data = bytes.Repeat([]byte{byte(i)}, LineSize)
		}
		rec.Record(uint64(i)*LineSize, data)
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecording(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range got.Entries {
		if !bytes.Equal(e.Data, rec.Entries[i].Data) || (e.Data == nil) != (rec.Entries[i].Data == nil) {
			t.Fatalf("entry %d: data %v, want %v", i, e.Data, rec.Entries[i].Data)
		}
		if e.Data != nil && cap(e.Data) != LineSize {
			t.Fatalf("entry %d: view has capacity %d, want %d", i, cap(e.Data), LineSize)
		}
	}
	if n := testing.AllocsPerRun(5, func() { ReadRecording(bytes.NewReader(buf.Bytes())) }); n > 40 {
		t.Errorf("reading %d entries allocates %v objects", rec.Len(), n)
	}
}
