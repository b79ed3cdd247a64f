package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// bigReport is a synthetic report the size of an observed sweep's:
// the sample plus a table of series whose cells carry long flight-
// recorder time series with attribution phase columns.
func bigReport() *Report {
	const series, windows = 16, 512
	r := sample()
	r.Timeseries = &TimeseriesMeta{Version: TimeseriesVersion, WindowUs: 5, MaxWindows: windows}
	phases := []string{"issue", "queue_wait", "device", "completion", "dispatch", "switch", "retry", "other"}
	t := &Table{ID: "big", Title: "synthetic", XLabel: "cell", YLabel: "value"}
	for s := 0; s < series; s++ {
		ts := &TimeSeries{WindowUs: 5, LastSpanUs: 2.5, Coalesced: s % 3, PhaseNames: phases}
		for w := 0; w < windows; w++ {
			u, f := uint64(w*s+7), Float(float64(w)*1.37+float64(s)/3)
			for _, col := range []*[]uint64{&ts.Starts, &ts.Completes, &ts.Retries, &ts.Timeouts, &ts.Abandoned, &ts.Switches} {
				*col = append(*col, u)
			}
			for _, col := range []*[]Float{&ts.P50Ns, &ts.P99Ns, &ts.P999Ns, &ts.LFBMean, &ts.ChipMean, &ts.SQMean, &ts.CQMean, &ts.RunnableMean} {
				*col = append(*col, f)
			}
			for _, col := range []*[]int{&ts.LFBMax, &ts.ChipMax, &ts.SQMax, &ts.CQMax, &ts.RunnableMax} {
				*col = append(*col, w%17)
			}
			row := make([]int64, len(phases))
			for p := range row {
				row[p] = int64(w*1000 + p*s)
			}
			ts.Phases = append(ts.Phases, row)
		}
		t.Series = append(t.Series, &Series{
			Label: fmt.Sprintf("series %d", s), X: []Float{1}, Y: []Float{Float(s) / 7},
			Metrics: []*TimeSeries{ts},
		})
	}
	r.Tables = append(r.Tables, t)
	return r
}

// TestEncodeAllocatesOnlyItsOutput: one Encode of a multi-megabyte
// report allocates its output and at most a small scratch beyond it.
func TestEncodeAllocatesOnlyItsOutput(t *testing.T) {
	r := bigReport()
	if _, err := sample().Encode(); err != nil { // build the cached type plans
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := r.Encode()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < 4<<20 {
		t.Fatalf("synthetic report is %d bytes, want at least 4 MiB", len(out))
	}
	const slack = 64 << 10
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(len(out))+slack {
		t.Errorf("Encode allocated %d bytes for a %d-byte report, want at most the output plus %d",
			alloc, len(out), slack)
	}
}

func BenchmarkEncode(b *testing.B) {
	r := bigReport()
	out, err := r.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(out)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, err = r.Encode(); err != nil {
			b.Fatal(err)
		}
	}
	encoded = out
}

var encoded []byte

// TestEncoderRejectsUnsupportedTypes: a type whose encoding/json form
// the encoder does not reproduce is an error when its plan is built.
func TestEncoderRejectsUnsupportedTypes(t *testing.T) {
	type embedded struct{ A int }
	type recursive struct {
		Next *recursive `json:"next"`
	}
	cases := []struct {
		name string
		v    any
		want string
	}{
		{"map", struct {
			M map[string]int `json:"m"`
		}{}, "kind map"},
		{"interface", struct {
			I any `json:"i"`
		}{}, "kind interface"},
		{"byte slice", struct {
			B []byte `json:"b"`
		}{}, "base64"},
		{"array", struct {
			A [2]int `json:"a"`
		}{}, "kind array"},
		{"float32", struct {
			F float32 `json:"f"`
		}{}, "kind float32"},
		{"embedded", struct{ embedded }{}, "embedded"},
		{"marshaler", struct {
			T time.Time `json:"t"`
		}{}, "implements json.Marshaler"},
		{"string option", struct {
			N int `json:"n,string"`
		}{}, `option "string"`},
		{"recursive", recursive{}, "recursive"},
	}
	for _, tc := range cases {
		_, err := encoderOf(reflect.TypeOf(tc.v), nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestEncodeConcurrent: concurrent Encodes, starting from an empty
// type cache, each produce encoding/json's bytes (kurecd encodes one
// report per job).
func TestEncodeConcurrent(t *testing.T) {
	encoders.Range(func(k, _ any) bool {
		encoders.Delete(k)
		return true
	})
	want, err := json.MarshalIndent(sample(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := sample().Encode()
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("concurrent Encode = %d bytes, %v; want encoding/json's %d bytes", len(got), err, len(want))
			}
		}()
	}
	wg.Wait()
}
