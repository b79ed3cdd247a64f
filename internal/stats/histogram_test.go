package stats

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the nearest-rank quantile over the raw samples — the
// reference the histogram's bucketed answer is held to.
func exactQuantile(samples []int64, q float64) int64 {
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(q * float64(len(sorted)))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func TestHistogramQuantileWithinOnePercent(t *testing.T) {
	// Latency-like mixture: a tight cluster around 1us (in ps), a tail
	// of retries near 10us, and a few ms-scale stragglers.
	rng := rand.New(rand.NewSource(42))
	var samples []int64
	for i := 0; i < 20000; i++ {
		v := int64(1_000_000 + rng.Intn(200_000))
		switch {
		case i%100 == 0:
			v = int64(10_000_000 + rng.Intn(2_000_000))
		case i%1000 == 0:
			v = int64(1_000_000_000 + rng.Intn(500_000_000))
		}
		samples = append(samples, v)
	}
	h := NewHistogram()
	for _, v := range samples {
		h.Record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := h.Quantile(q)
		want := exactQuantile(samples, q)
		diff := float64(got-want) / float64(want)
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.01 {
			t.Errorf("Quantile(%v) = %d, exact %d: off by %.2f%% (>1%%)",
				q, got, want, diff*100)
		}
	}
}

func TestHistogramSmallValuesExact(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < 256; v++ {
		h.Record(v)
	}
	if got := h.Quantile(0.5); got != 127 {
		t.Errorf("median of 0..255 = %d, want 127 (values < 256 are exact)", got)
	}
	if h.Min() != 0 || h.Max() != 255 {
		t.Errorf("min/max = %d/%d, want 0/255", h.Min(), h.Max())
	}
}

func TestHistogramBoundedMemory(t *testing.T) {
	h := NewHistogram()
	// A pathological spread — ps to hours — must stay in a few thousand
	// buckets, unlike the unbounded per-sample slice it replaced.
	for v := int64(1); v > 0 && v < int64(1)<<62; v *= 3 {
		h.Record(v)
	}
	if n := h.Buckets(); n > 8000 {
		t.Errorf("%d buckets for a full-range spread; want bounded (<=8000)", n)
	}
}

func TestHistogramQuantileClampedToObservedRange(t *testing.T) {
	h := NewHistogram()
	h.Record(1_000_003)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 1_000_003 {
			t.Errorf("Quantile(%v) of a single sample = %d, want the sample", q, got)
		}
	}
}

func TestHistogramNilAndEmpty(t *testing.T) {
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 || nilH.Count() != 0 {
		t.Error("nil histogram must answer zero")
	}
	if NewHistogram().Quantile(0.99) != 0 {
		t.Error("empty histogram must answer zero")
	}
}

func TestHistogramEmptyAllQuantiles(t *testing.T) {
	h := NewHistogram()
	for _, q := range []float64{0, 0.001, 0.5, 0.99, 1, -1, 2} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	if h.Min() != 0 || h.Max() != 0 || h.Buckets() != 0 {
		t.Errorf("empty histogram state: min=%d max=%d buckets=%d", h.Min(), h.Max(), h.Buckets())
	}
}

func TestHistogramSingleSampleEverywhere(t *testing.T) {
	// One sample answers every quantile, including the clamped extremes,
	// across exact, boundary, and bucketed magnitudes.
	for _, v := range []int64{0, 1, 255, 256, 257, 1 << 20, 1<<40 + 12345} {
		h := NewHistogram()
		h.Record(v)
		for _, q := range []float64{0, 0.5, 0.999, 1} {
			if got := h.Quantile(q); got != v {
				t.Errorf("single sample %d: Quantile(%v) = %d", v, q, got)
			}
		}
	}
}

// TestHistogramBucketBoundaries pins the bucketing scheme at its edges:
// the exact/bucketed threshold and power-of-two boundaries, where an
// off-by-one in bucketIndex/bucketValue would silently misplace samples.
func TestHistogramBucketBoundaries(t *testing.T) {
	// Below histExact every value owns its bucket: index == value.
	for _, v := range []int64{0, 1, 127, 128, 255} {
		if got := bucketIndex(v); got != int(v) {
			t.Errorf("bucketIndex(%d) = %d, want exact identity below %d", v, got, histExact)
		}
		if got := bucketValue(int(v)); got != v {
			t.Errorf("bucketValue(%d) = %d, want identity", v, got)
		}
	}
	// At and beyond the threshold, a value's bucket midpoint must stay
	// within half a bucket width: 1/256 of the value.
	for _, v := range []int64{256, 257, 511, 512, 1023, 1024, 1 << 20, 1<<20 + 1, 1<<40 - 1, 1 << 40} {
		idx := bucketIndex(v)
		mid := bucketValue(idx)
		diff := mid - v
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > float64(v)/256+1 {
			t.Errorf("bucketValue(bucketIndex(%d)) = %d: off by %d (> v/256)", v, mid, diff)
		}
	}
	// Bucket indexes must be monotone in the sample value.
	prev := -1
	for v := int64(0); v < 1<<14; v++ {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
}

// TestHistogramLogSpacedCorpus holds the bucketed quantile to its design
// accuracy — half a sub-bucket, 1/256 ≈ 0.39% — on a corpus spanning six
// decades, against the exact nearest-rank reference.
func TestHistogramLogSpacedCorpus(t *testing.T) {
	var samples []int64
	v := 100.0
	for v < 1e8 {
		samples = append(samples, int64(v))
		v *= 1.013
	}
	h := NewHistogram()
	for _, s := range samples {
		h.Record(s)
	}
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		got := h.Quantile(q)
		want := exactQuantile(samples, q)
		diff := float64(got-want) / float64(want)
		if diff < 0 {
			diff = -diff
		}
		if diff > 1.0/256 {
			t.Errorf("Quantile(%v) = %d, exact %d: off by %.3f%% (> 0.39%%)",
				q, got, want, diff*100)
		}
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("negative samples should clamp to 0: min=%d p50=%d", h.Min(), h.Quantile(0.5))
	}
}

// TestHistogramMerge covers the windowed-rollup path the telemetry
// recorder relies on: merging must be equivalent to recording every
// sample into one histogram.
func TestHistogramMerge(t *testing.T) {
	a, b, ref := NewHistogram(), NewHistogram(), NewHistogram()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(10_000_000))
		a.Record(v)
		ref.Record(v)
	}
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(2_000_000_000))
		b.Record(v)
		ref.Record(v)
	}
	a.Merge(b)
	if a.Count() != ref.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), ref.Count())
	}
	if a.Min() != ref.Min() || a.Max() != ref.Max() {
		t.Errorf("merged min/max = %d/%d, want %d/%d", a.Min(), a.Max(), ref.Min(), ref.Max())
	}
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if got, want := a.Quantile(q), ref.Quantile(q); got != want {
			t.Errorf("merged Quantile(%v) = %d, want %d", q, got, want)
		}
	}
}

func TestHistogramMergeEmpty(t *testing.T) {
	// Empty or nil source: a no-op that must not disturb min/max.
	h := NewHistogram()
	h.Record(500)
	h.Merge(NewHistogram())
	h.Merge(nil)
	if h.Count() != 1 || h.Min() != 500 || h.Max() != 500 {
		t.Errorf("merge of empty changed state: count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	// Empty destination: adopts the source wholesale, including min/max.
	e := NewHistogram()
	e.Merge(h)
	if e.Count() != 1 || e.Min() != 500 || e.Max() != 500 || e.Quantile(0.5) != 500 {
		t.Errorf("merge into empty: count=%d min=%d max=%d p50=%d",
			e.Count(), e.Min(), e.Max(), e.Quantile(0.5))
	}
	// And the source is untouched.
	if h.Count() != 1 || h.Quantile(1) != 500 {
		t.Error("Merge mutated its argument")
	}
}

func TestHistogramMergeDisjointRanges(t *testing.T) {
	// Ranges that do not overlap: min comes from one side, max from the
	// other, regardless of merge direction.
	lo, hi := NewHistogram(), NewHistogram()
	for v := int64(10); v < 20; v++ {
		lo.Record(v)
	}
	for v := int64(1 << 30); v < 1<<30+10; v++ {
		hi.Record(v)
	}
	lo.Merge(hi)
	if lo.Min() != 10 || lo.Max() != (1<<30)+9 {
		t.Errorf("lo<-hi min/max = %d/%d", lo.Min(), lo.Max())
	}
	if lo.Count() != 20 {
		t.Errorf("lo<-hi count = %d, want 20", lo.Count())
	}
	// The other direction: the destination's counts slice must grow.
	lo2, hi2 := NewHistogram(), NewHistogram()
	lo2.Record(10)
	hi2.Record(1 << 30)
	hi2.Merge(lo2)
	if hi2.Min() != 10 || hi2.Max() != 1<<30 || hi2.Count() != 2 {
		t.Errorf("hi<-lo min/max/count = %d/%d/%d", hi2.Min(), hi2.Max(), hi2.Count())
	}
}

func TestHistogramMergeSingleBucket(t *testing.T) {
	// Both sides hold one identical value: one bucket, counts add.
	a, b := NewHistogram(), NewHistogram()
	a.Record(42)
	b.Record(42)
	b.Record(42)
	a.Merge(b)
	if a.Count() != 3 || a.Min() != 42 || a.Max() != 42 || a.Quantile(0.5) != 42 {
		t.Errorf("single-bucket merge: count=%d min=%d max=%d p50=%d",
			a.Count(), a.Min(), a.Max(), a.Quantile(0.5))
	}
}

func TestHistogramMergeIntoNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Merge into a nil histogram must panic")
		}
	}()
	var h *Histogram
	h.Merge(NewHistogram())
}

// TestHistogramRecordAllocs: recording into buckets that already exist
// allocates nothing, and a rising or a falling sweep that adds about two
// thousand buckets one at a time grows the count slice a logarithmic
// number of times, not once per bucket.
func TestHistogramRecordAllocs(t *testing.T) {
	h := NewHistogram()
	for _, sweep := range []struct {
		name string
		run  func()
	}{
		{"rising", func() {
			for v := int64(0); v < 1<<20; v += 37 {
				h.Record(v)
			}
		}},
		{"falling", func() {
			for v := int64(1 << 20); v >= 0; v -= 37 {
				h.Record(v)
			}
		}},
	} {
		growths := testing.AllocsPerRun(1, func() {
			*h = Histogram{}
			sweep.run()
		})
		if limit := float64(3 * bits.Len(uint(h.Buckets()))); growths > limit {
			t.Errorf("a %s sweep over %d buckets grew the slice %v times, want at most %v", sweep.name, h.Buckets(), growths, limit)
		}
	}
	if n := testing.AllocsPerRun(100, func() { h.Record(12345) }); n != 0 {
		t.Errorf("recording into an existing bucket allocates %v objects", n)
	}
}

// TestHistogramResetReuses: a reset histogram answers like a new one
// and records into its old storage without allocating.
func TestHistogramResetReuses(t *testing.T) {
	h := NewHistogram()
	for v := int64(1000); v < 1_000_000; v += 997 {
		h.Record(v)
	}
	h.Reset()
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Buckets() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("reset histogram: count=%d min=%d max=%d buckets=%d", h.Count(), h.Min(), h.Max(), h.Buckets())
	}
	allocs := testing.AllocsPerRun(10, func() {
		h.Reset()
		for v := int64(500_000); v > 2000; v -= 1013 {
			h.Record(v)
		}
	})
	if allocs != 0 {
		t.Errorf("recording into a reset histogram allocates %v objects", allocs)
	}
	if h.Min() != 500_000-491*1013 || h.Max() != 500_000 {
		t.Errorf("min/max after reuse = %d/%d", h.Min(), h.Max())
	}
}
