package report

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// fuzzReport builds a report from a byte stream: every choice (a
// value, a string, whether a slice is nil, empty or filled) consumes
// input, and an exhausted stream reads as zeros. The reports are not
// schema-valid; Encode must serialize them regardless.
type fuzzReport struct{ data []byte }

func (g *fuzzReport) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *fuzzReport) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = g.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// fuzzFloats are the values encoding/json formats at an edge: the
// NaN/Inf a plain float64 cannot encode, negative zero, and both sides
// of the 1e-6 and 1e21 switches between 'f' and 'e' form.
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	1e-7, -1e-7, 1e-6, 9.99e-7, 1e21, -1e21, 1e20, 123456789e13,
	0.1, 1.5, 17e6, 2.5e-300, math.MaxFloat64, math.SmallestNonzeroFloat64,
}

func (g *fuzzReport) float() float64 {
	sel := g.byte()
	switch sel % 4 {
	case 0, 1:
		return fuzzFloats[int(sel/4)%len(fuzzFloats)]
	case 2:
		return float64(int8(g.byte())) / 8
	default:
		return math.Float64frombits(g.u64())
	}
}

// finite is a float for the fields a valid report must hold finite
// (plain float64s); one NaN or Inf in four is kept, which makes the
// whole encoding fail.
func (g *fuzzReport) finite() float64 {
	f := g.float()
	if (math.IsNaN(f) || math.IsInf(f, 0)) && g.byte()%4 != 0 {
		return 1
	}
	return f
}

// fuzzStrings are strings encoding/json escapes: HTML characters,
// control bytes with and without short escapes, quotes and
// backslashes, U+2028/2029, invalid and truncated UTF-8.
var fuzzStrings = []string{
	"", "fig3", "<a&b>", "\x00\x01\x1f\x7f", "\b\f\n\r\t", `q"uote\back`,
	"line\u2028sep\u2029", "\xff\xfe", "trunc\xe2\x80", "é–✓😀", "\xed\xa0\x80",
}

func (g *fuzzReport) str() string {
	sel := g.byte()
	if sel%2 == 0 {
		return fuzzStrings[int(sel/2)%len(fuzzStrings)]
	}
	n := int(g.byte() % 12)
	b := make([]byte, n)
	for i := range b {
		b[i] = g.byte()
	}
	return string(b)
}

// count returns -1 for a nil slice, else a length in [0, max]; an
// exhausted stream reads as a nil slice.
func (g *fuzzReport) count(max int) int {
	switch b := g.byte(); b % 16 {
	case 0:
		return -1
	case 1:
		return 0
	default:
		return 1 + int(b/16)%max
	}
}

func (g *fuzzReport) int() int { return int(int64(g.u64()) >> (g.byte() % 64)) }

func fuzzSlice[T any](g *fuzzReport, max int, elem func() T) []T {
	n := g.count(max)
	if n < 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = elem()
	}
	return s
}

// fuzzPtr returns nil one time in sixteen, and for an exhausted stream.
func fuzzPtr[T any](g *fuzzReport, build func() T) *T {
	if g.byte()%16 == 0 {
		return nil
	}
	v := build()
	return &v
}

func (g *fuzzReport) floats() []Float {
	return fuzzSlice(g, 4, func() Float { return Float(g.float()) })
}

func (g *fuzzReport) uints() []uint64 {
	return fuzzSlice(g, 4, func() uint64 { return g.u64() >> (g.byte() % 64) })
}

func (g *fuzzReport) ints() []int { return fuzzSlice(g, 4, g.int) }

func (g *fuzzReport) timeSeries() TimeSeries {
	return TimeSeries{
		WindowUs: Float(g.float()), LastSpanUs: Float(g.float()),
		// Zero one time in two: omitempty drops it.
		Coalesced: g.int() * int(g.byte()%2),
		Starts:    g.uints(), Completes: g.uints(), Retries: g.uints(),
		Timeouts: g.uints(), Abandoned: g.uints(), Switches: g.uints(),
		P50Ns: g.floats(), P99Ns: g.floats(), P999Ns: g.floats(),
		LFBMean: g.floats(), LFBMax: g.ints(), ChipMean: g.floats(), ChipMax: g.ints(),
		SQMean: g.floats(), SQMax: g.ints(), CQMean: g.floats(), CQMax: g.ints(),
		RunnableMean: g.floats(), RunnableMax: g.ints(),
		PhaseNames: fuzzSlice(g, 3, g.str),
		Phases: fuzzSlice(g, 3, func() []int64 {
			return fuzzSlice(g, 3, func() int64 { return int64(g.int()) })
		}),
		TotalStarts: g.u64(), TotalCompletes: g.u64(), TotalRetries: g.u64(),
		TotalTimeouts: g.u64(), TotalAbandoned: g.u64(), TotalSwitches: g.u64(),
		TotalP50Ns: Float(g.float()), TotalP99Ns: Float(g.float()), TotalP999Ns: Float(g.float()),
	}
}

func (g *fuzzReport) attrib() AttribSummary {
	return AttribSummary{
		Label: g.str(),
		Phases: fuzzSlice(g, 3, func() PhaseSum {
			return PhaseSum{Phase: g.str(), SumPs: int64(g.int()), Count: g.u64(),
				P50Ns: Float(g.float()), P99Ns: Float(g.float()), MaxNs: Float(g.float())}
		}),
		Accesses: g.u64(), TotalPs: int64(g.int()), Mismatches: g.u64(),
	}
}

func (g *fuzzReport) fleet() FleetSummary {
	return FleetSummary{
		Policy: g.str(), Shape: g.str(), Mech: g.str(),
		Rho: Float(g.float()), OfferedPerSec: Float(g.float()), CompletedPerSec: Float(g.float()),
		Arrived: g.u64(), Completed: g.u64(), ElapsedSeconds: Float(g.float()),
		Events: g.u64(),
		P50Ns:  Float(g.float()), P99Ns: Float(g.float()), P999Ns: Float(g.float()),
		Instances: fuzzSlice(g, 3, func() FleetInstance {
			return FleetInstance{Arrived: g.u64(), Completed: g.u64(),
				Windows: g.int(), SaturatedWindows: g.int(), PeakOutstanding: g.int(),
				P50Ns: Float(g.float()), P99Ns: Float(g.float()), P999Ns: Float(g.float())}
		}),
	}
}

func (g *fuzzReport) series() Series {
	return Series{
		Label: g.str(), X: g.floats(), Y: g.floats(),
		Diags: fuzzSlice(g, 3, func() *Diag {
			return fuzzPtr(g, func() Diag {
				return Diag{Accesses: g.int(), P50Ns: Float(g.float()), P99Ns: Float(g.float()),
					P999Ns: Float(g.float()), MeanLFBOccupancy: Float(g.float()),
					MeanChipOccupancy: Float(g.float()), SimEvents: g.u64()}
			})
		}),
		Metrics: fuzzSlice(g, 2, func() *TimeSeries { return fuzzPtr(g, g.timeSeries) }),
		Attrib:  fuzzSlice(g, 2, func() *AttribSummary { return fuzzPtr(g, g.attrib) }),
		Fleet:   fuzzSlice(g, 2, func() *FleetSummary { return fuzzPtr(g, g.fleet) }),
	}
}

func (g *fuzzReport) report() *Report {
	return &Report{
		Schema: g.str(), Version: g.int(), Tool: g.str(),
		Build: Build{GoVersion: g.str(), OS: g.str(), Arch: g.str(), Module: g.str()},
		Platform: Platform{
			CPUFreqGHz: g.finite(), IssueWidth: g.int(), WindowSize: g.int(), WorkIPC: g.finite(),
			LFBPerCore: g.int(), ChipQueueMMIO: g.int(), DRAMLatencyNs: g.finite(),
			PCIeBandwidthGBps: g.finite(), PCIePropagationNs: g.finite(), DeviceLatencyNs: g.finite(),
			CtxSwitchNs: g.finite(), FetchBurst: g.int(), DescriptorBytes: g.int(),
		},
		Sweep: Sweep{
			Quick: g.byte()%2 == 1, Iterations: g.int(), AppLookups: g.int(), Threads: g.ints(),
			UseReplay: g.byte()%2 == 1, LatenciesUs: fuzzSlice(g, 4, g.finite),
			WorkCounts: g.ints(), MLPLevels: g.ints(), KroneckerSeed: int64(g.int()),
		},
		Timeseries: fuzzPtr(g, func() TimeseriesMeta {
			return TimeseriesMeta{Version: g.int(), WindowUs: g.finite(), MaxWindows: g.int()}
		}),
		Attribution: fuzzPtr(g, func() AttributionMeta {
			return AttributionMeta{Version: g.int(), Phases: fuzzSlice(g, 3, g.str)}
		}),
		Cluster: fuzzPtr(g, func() ClusterMeta {
			return ClusterMeta{Version: g.int(), Policies: fuzzSlice(g, 3, g.str), Shapes: fuzzSlice(g, 3, g.str)}
		}),
		Tables: fuzzSlice(g, 4, func() *Table {
			return fuzzPtr(g, func() Table {
				return Table{ID: g.str(), Title: g.str(), XLabel: g.str(), YLabel: g.str(),
					Notes:  fuzzSlice(g, 2, g.str),
					Series: fuzzSlice(g, 4, func() *Series { return fuzzPtr(g, g.series) }),
				}
			})
		}),
	}
}

// FuzzEncode pins Encode to encoding/json: for any report it must
// produce MarshalIndent(r, "", "  ")'s bytes plus a newline, or fail
// exactly when MarshalIndent fails (a NaN or Inf plain float64).
func FuzzEncode(f *testing.F) {
	// Random streams of these lengths reach every value table above,
	// nil and empty slices, nil payloads, Coalesced at 0, and both a
	// NaN and an Inf plain float64 (four of the reports fail).
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 64, 512, 4096, 8192, 8192, 8192, 8192, 8192,
		8192, 8192, 8192, 8192, 8192, 8192, 8192, 8192, 8192} {
		b := make([]byte, n)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := (&fuzzReport{data: data}).report()
		want, werr := json.MarshalIndent(r, "", "  ")
		got, gerr := r.Encode()
		switch {
		case werr != nil && gerr == nil:
			t.Fatalf("MarshalIndent failed (%v), Encode did not", werr)
		case werr == nil && gerr != nil:
			t.Fatalf("Encode failed (%v), MarshalIndent did not", gerr)
		case werr == nil && !bytes.Equal(got, append(want, '\n')):
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			lo := max(0, i-80)
			t.Fatalf("Encode differs from MarshalIndent at byte %d:\n got  %q\n want %q",
				i, got[lo:min(len(got), i+80)], want[lo:min(len(want), i+80)])
		}
	})
}
