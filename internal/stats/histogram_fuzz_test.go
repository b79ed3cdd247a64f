package stats

import (
	"encoding/binary"
	"testing"
)

// denseHistogram is the reference the range-bounded Histogram is held
// to: the same bucketing and quantile convention over counts indexed
// from bucket 0.
type denseHistogram struct {
	counts   []uint64
	total    uint64
	min, max int64
}

func (d *denseHistogram) record(v int64) {
	v = max(v, 0)
	idx := bucketIndex(v)
	if idx >= len(d.counts) {
		d.counts = append(d.counts, make([]uint64, idx+1-len(d.counts))...)
	}
	d.counts[idx]++
	if d.total == 0 || v < d.min {
		d.min = v
	}
	d.max = max(d.max, v)
	d.total++
}

func (d *denseHistogram) quantile(q float64) int64 {
	if d.total == 0 {
		return 0
	}
	rank := min(max(uint64(q*float64(d.total)), 1), d.total)
	var cum uint64
	for idx, c := range d.counts {
		if cum += c; cum >= rank {
			return min(max(bucketValue(idx), d.min), d.max)
		}
	}
	return d.max
}

// held returns the occupied bucket range's width, 0 when empty.
func (d *denseHistogram) held() int {
	if d.total == 0 {
		return 0
	}
	return bucketIndex(d.max) - bucketIndex(d.min) + 1
}

var fuzzQuantiles = []float64{0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}

func checkAgainstDense(t *testing.T, what string, h *Histogram, d *denseHistogram) {
	t.Helper()
	if h.Count() != d.total || h.Min() != d.min || h.Max() != d.max {
		t.Fatalf("%s: count/min/max = %d/%d/%d, reference %d/%d/%d",
			what, h.Count(), h.Min(), h.Max(), d.total, d.min, d.max)
	}
	if h.Buckets() != d.held() {
		t.Fatalf("%s: holds %d buckets, occupied range is %d", what, h.Buckets(), d.held())
	}
	for _, q := range fuzzQuantiles {
		if got, want := h.Quantile(q), d.quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %d, reference %d", what, q, got, want)
		}
	}
}

// fuzzValue decodes one sample: the selector's low two bits pick a
// magnitude class (negative, exact below 256, microsecond-scale in
// picoseconds, anything up to MaxInt64).
func fuzzValue(sel byte, raw uint64) int64 {
	switch sel & 3 {
	case 0:
		return -int64(raw>>2) - 1
	case 1:
		return int64(raw % histExact)
	case 2:
		return int64(raw % (1 << 24))
	}
	return int64(raw >> 1)
}

// FuzzHistogram holds Record, Merge, Reset and every accessor to the
// dense reference. data is a stream of 9-byte samples: a selector
// (magnitude class, and which of two histograms records it) and 8 raw
// bytes. mode picks the merge direction, whether an empty histogram is
// merged in on both sides, and whether the destination is a recycled
// (Reset) histogram that held unrelated samples before.
func FuzzHistogram(f *testing.F) {
	sample := func(sel byte, v uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{sel}, v)
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// Disjoint ranges: exact values into a, large ones into b.
	f.Add(cat(sample(1, 10), sample(1, 200), sample(3|4, 1<<50), sample(3|4, 1<<52)), uint8(0))
	f.Add(cat(sample(1, 10), sample(1, 200), sample(3|4, 1<<50), sample(3|4, 1<<52)), uint8(1))
	// Overlapping microsecond-scale ranges, with negatives.
	f.Add(cat(sample(2, 1_000_000), sample(2|4, 1_200_000), sample(2, 3_000_000), sample(0|4, 7), sample(2|4, 900_000)), uint8(2))
	// One side empty, recycled destination.
	f.Add(cat(sample(2, 5_000), sample(3, 1<<40), sample(1, 0)), uint8(5))
	f.Add(cat(sample(2|4, 5_000), sample(3|4, 1<<40)), uint8(4))
	f.Add([]byte{}, uint8(7))

	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		hs := [2]*Histogram{NewHistogram(), NewHistogram()}
		var ds [2]denseHistogram
		var all denseHistogram
		dst, src := mode&1, 1-mode&1
		if mode&4 != 0 {
			// Recycle the destination: unrelated samples, then Reset.
			for v := int64(1); v < 1<<40; v *= 5 {
				hs[dst].Record(v)
			}
			hs[dst].Reset()
		}
		for ; len(data) >= 9; data = data[9:] {
			v := fuzzValue(data[0], binary.LittleEndian.Uint64(data[1:]))
			side := data[0] >> 2 & 1
			hs[side].Record(v)
			ds[side].record(v)
			all.record(v)
		}
		checkAgainstDense(t, "a", hs[0], &ds[0])
		checkAgainstDense(t, "b", hs[1], &ds[1])
		if mode&2 != 0 {
			hs[dst].Merge(NewHistogram())
			hs[src].Merge(NewHistogram())
			checkAgainstDense(t, "after merging an empty histogram", hs[dst], &ds[dst])
		}
		hs[dst].Merge(hs[src])
		checkAgainstDense(t, "merged", hs[dst], &all)
		checkAgainstDense(t, "merge source", hs[src], &ds[src])
	})
}
