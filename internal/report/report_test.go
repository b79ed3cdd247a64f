package report

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/stats"
)

// sample builds a minimal schema-valid report for the tests to mutate.
func sample() *Report {
	return &Report{
		Schema:  SchemaName,
		Version: SchemaVersion,
		Tool:    "test",
		Build:   CurrentBuild(),
		Sweep:   Sweep{Iterations: 100, Threads: []int{1, 2}},
		Tables: []*Table{
			{
				ID: "fig3", Title: "t", XLabel: "threads", YLabel: "norm",
				Series: []*Series{
					{Label: "1us", X: []Float{1, 2, 4}, Y: []Float{0.1, 0.5, 0.9}},
					{Label: "2us", X: []Float{1, 2, 4}, Y: []Float{0.05, 0.2, 0.45}},
				},
			},
			{
				ID: "fig5", Title: "t", XLabel: "threads", YLabel: "norm",
				Series: []*Series{
					{
						Label: "1us 8c", X: []Float{1, 2}, Y: []Float{0.2, 0.8},
						Diags: []*Diag{nil, {Accesses: 10, P99Ns: 2000, SimEvents: 42}},
						Attrib: []*AttribSummary{nil, {
							Label: "swq 8c",
							Phases: []PhaseSum{
								{Phase: "issue", SumPs: 3000, Count: 10, P50Ns: 0.3, P99Ns: 0.5, MaxNs: 0.5},
								{Phase: "queue_wait", SumPs: 17000, Count: 6, P50Ns: 2.5, P99Ns: Float(math.NaN()), MaxNs: 4},
							},
							Accesses: 10, TotalPs: 20000, Mismatches: 0,
						}},
					},
				},
			},
			{
				ID: "cluster_policy", Title: "t", XLabel: "rho", YLabel: "p99_us",
				Series: []*Series{
					{
						Label: "round-robin", X: []Float{0.9}, Y: []Float{12.5},
						Fleet: []*FleetSummary{{
							Policy: "round-robin", Shape: "poisson", Mech: "prefetch",
							Rho: 0.9, OfferedPerSec: 17e6, CompletedPerSec: 1.6e6,
							Arrived: 300, Completed: 290, ElapsedSeconds: 1.8e-4,
							P50Ns: 4200, P99Ns: 12500, P999Ns: Float(math.NaN()),
							Instances: []FleetInstance{
								{Arrived: 160, Completed: 155, Windows: 9, SaturatedWindows: 2, PeakOutstanding: 14, P50Ns: 4100, P99Ns: 12000, P999Ns: 13000},
								{Arrived: 140, Completed: 135, Windows: 9, SaturatedWindows: 0, PeakOutstanding: 11, P50Ns: 4300, P99Ns: 12900, P999Ns: 14000},
							},
						}},
					},
				},
			},
		},
		Attribution: &AttributionMeta{Version: AttributionVersion, Phases: []string{"issue", "queue_wait"}},
		Cluster:     &ClusterMeta{Version: ClusterVersion, Policies: []string{"round-robin"}, Shapes: []string{"poisson"}},
	}
}

func TestFloatMarshalNaNAsNull(t *testing.T) {
	b, err := json.Marshal([]Float{1.5, Float(math.NaN()), Float(math.Inf(1))})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(b), "[1.5,null,null]"; got != want {
		t.Fatalf("marshal = %s, want %s", got, want)
	}
	var back []Float
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if float64(back[0]) != 1.5 || !back[1].IsNaN() || !back[2].IsNaN() {
		t.Fatalf("round trip = %v", back)
	}
}

func TestValidateAcceptsSample(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Report)
	}{
		{"wrong schema", func(r *Report) { r.Schema = "other" }},
		{"wrong version", func(r *Report) { r.Version = 99 }},
		{"empty tool", func(r *Report) { r.Tool = "" }},
		{"no tables", func(r *Report) { r.Tables = nil }},
		{"duplicate table", func(r *Report) { r.Tables[1].ID = "fig3" }},
		{"table without id", func(r *Report) { r.Tables[0].ID = "" }},
		{"no series", func(r *Report) { r.Tables[0].Series = nil }},
		{"duplicate series", func(r *Report) { r.Tables[0].Series[1].Label = "1us" }},
		{"unlabeled series", func(r *Report) { r.Tables[0].Series[0].Label = "" }},
		{"x/y length mismatch", func(r *Report) { r.Tables[0].Series[0].Y = r.Tables[0].Series[0].Y[:2] }},
		{"empty series", func(r *Report) {
			r.Tables[0].Series[0].X = nil
			r.Tables[0].Series[0].Y = nil
		}},
		{"misaligned diags", func(r *Report) { r.Tables[1].Series[0].Diags = r.Tables[1].Series[0].Diags[:1] }},
		{"null x cell", func(r *Report) { r.Tables[0].Series[0].X[1] = Float(math.NaN()) }},
		{"fleet cell without policy", func(r *Report) { r.Tables[2].Series[0].Fleet[0].Policy = "" }},
		{"fleet instance arrivals off the total", func(r *Report) { r.Tables[2].Series[0].Fleet[0].Instances[0].Arrived = 170 }},
		{"fleet saturated windows exceed windows", func(r *Report) { r.Tables[2].Series[0].Fleet[0].Instances[1].SaturatedWindows = 10 }},
		{"attribution phase sums off total_ps", func(r *Report) { r.Tables[1].Series[0].Attrib[1].TotalPs = 21000 }},
		{"attribution duplicate phase", func(r *Report) { r.Tables[1].Series[0].Attrib[1].Phases[1].Phase = "issue" }},
		{"attribution without a block", func(r *Report) { r.Attribution = nil }},
		{"fleet without a cluster block", func(r *Report) { r.Cluster = nil }},
	}
	for _, tc := range cases {
		r := sample()
		tc.mut(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken report", tc.name)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, err := sample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same report differ")
	}
	if a[len(a)-1] != '\n' {
		t.Fatal("encoding lacks trailing newline")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	r := sample()
	// A NaN y cell must survive the round trip as NaN, not zero.
	r.Tables[0].Series[0].Y[0] = Float(math.NaN())
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Tables[0].Series[0].Y[0].IsNaN() {
		t.Fatal("null cell did not round-trip to NaN")
	}
	if got := back.Table("fig5").FindSeries("1us 8c").Diags[1]; got == nil || got.SimEvents != 42 {
		t.Fatalf("diagnostics did not round-trip: %+v", got)
	}
	if got := back.Table("fig5").FindSeries("1us 8c").Attrib[1]; got == nil || got.TotalPs != 20000 || !got.Phases[1].P99Ns.IsNaN() {
		t.Fatalf("attribution did not round-trip: %+v", got)
	}
	if got := back.Table("cluster_policy").FindSeries("round-robin").FleetAt(0.9); got == nil ||
		float64(got.OfferedPerSec) != 17e6 || !got.P999Ns.IsNaN() || len(got.Instances) != 2 {
		t.Fatalf("fleet summary did not round-trip: %+v", got)
	}
	// Re-encoding the parsed report must reproduce the original bytes,
	// payloads included.
	a, _ := r.Encode()
	b, _ := back.Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("re-encoding a parsed report changed its bytes")
	}
}

// TestReportGolden pins the bytes of a table and every per-cell
// payload as Encode writes them. Each float field holds NaN or a value
// of at least 1e6, where Float ('g' formatting, NaN as null) and a bare
// float64 (fixed-point, NaN is an error) disagree, so retyping any
// payload field to float64 fails this test. The table also pins notes,
// a null y cell, the null entries a point without payloads leaves
// before a point with them, a payload-free series (no payload keys at
// all), and a flight-recorder series with coalesced windows and phase
// columns; decoding the bytes and encoding again must reproduce them.
func TestReportGolden(t *testing.T) {
	nan := stats.Float(math.NaN())
	st := &Table{ID: "g", Title: "golden", XLabel: "x", YLabel: "y"}
	st.Note("knee at %d threads", 4)
	s := st.AddSeries("a")
	s.Add(1, math.NaN())
	s.AddRun(2, 0.5, stats.RunDiag{Accesses: 7, P50Ns: 1.25e6, P99Ns: 2.5e6, P999Ns: nan,
		MeanLFBOccupancy: 3e6, MeanChipOccupancy: 4.5e6, SimEvents: 11})
	s.AttachMetrics(&stats.TimeSeries{
		WindowUs: 2e6, LastSpanUs: 1.5e6, Coalesced: 2,
		Starts: []uint64{3, 1}, Completes: []uint64{2, 2}, Retries: []uint64{1, 0},
		Timeouts: []uint64{1, 0}, Abandoned: []uint64{0, 1}, Switches: []uint64{4, 5},
		P50Ns: []stats.Float{1e6, nan}, P99Ns: []stats.Float{2e6, 3e6}, P999Ns: []stats.Float{nan, 4e6},
		LFBMean: []stats.Float{1.5e6, 2e6}, LFBMax: []int{10, 9},
		ChipMean: []stats.Float{nan, 1e7}, ChipMax: []int{14, 0},
		SQMean: []stats.Float{1e6, 1e6}, SQMax: []int{2, 3},
		CQMean: []stats.Float{3e6, nan}, CQMax: []int{1, 1},
		RunnableMean: []stats.Float{5e6, 6e6}, RunnableMax: []int{7, 8},
		PhaseNames:  []string{"issue", "device"},
		Phases:      [][]int64{{2000, 5000}, {0, 9000}},
		TotalStarts: 4, TotalCompletes: 4, TotalRetries: 1, TotalTimeouts: 1,
		TotalAbandoned: 1, TotalSwitches: 9,
		TotalP50Ns: 1.5e6, TotalP99Ns: nan, TotalP999Ns: 4e6,
	})
	s.AttachAttrib(&stats.AttribSummary{
		Label: "a",
		Phases: []stats.PhaseSum{
			{Phase: "issue", SumPs: 2000, Count: 2, P50Ns: 1e6, P99Ns: nan, MaxNs: 2e6},
			{Phase: "device", SumPs: 5000, Count: 1, P50Ns: 5e6, P99Ns: 6e6, MaxNs: 7e6},
		},
		Accesses: 2, TotalPs: 7000, Mismatches: 1,
	})
	s.AttachFleet(&stats.FleetSummary{
		Policy: "round-robin", Shape: "poisson", Mech: "swqueue",
		Rho: 1.5e6, OfferedPerSec: 17e6, CompletedPerSec: 16e6,
		Arrived: 5, Completed: 4, ElapsedSeconds: 2e6, Events: 99,
		P50Ns: 3e6, P99Ns: nan, P999Ns: 8e6,
		Instances: []stats.FleetInstance{{Arrived: 5, Completed: 4, Windows: 3, SaturatedWindows: 1,
			PeakOutstanding: 2, P50Ns: 1.1e6, P99Ns: 2.2e6, P999Ns: nan}},
	})
	st.AddSeries("b").Add(1, 2e6)
	r := &Report{Schema: SchemaName, Version: SchemaVersion, Tool: "golden", Tables: []*Table{st}}
	b, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
  "schema": "killerusec-report",
  "version": 1,
  "tool": "golden",
  "build": {
    "go_version": "",
    "os": "",
    "arch": "",
    "module": ""
  },
  "platform": {
    "cpu_freq_ghz": 0,
    "issue_width": 0,
    "window_size": 0,
    "work_ipc": 0,
    "lfb_per_core": 0,
    "chip_queue_mmio": 0,
    "dram_latency_ns": 0,
    "pcie_bandwidth_gbps": 0,
    "pcie_propagation_ns": 0,
    "device_latency_ns": 0,
    "ctx_switch_ns": 0,
    "fetch_burst": 0,
    "descriptor_bytes": 0
  },
  "sweep": {
    "quick": false,
    "iterations": 0,
    "app_lookups": 0,
    "threads": null,
    "use_replay": false,
    "latencies_us": null,
    "work_counts": null,
    "mlp_levels": null,
    "kronecker_seed": 0
  },
  "tables": [
    {
      "id": "g",
      "title": "golden",
      "x_label": "x",
      "y_label": "y",
      "notes": [
        "knee at 4 threads"
      ],
      "series": [
        {
          "label": "a",
          "x": [
            1,
            2
          ],
          "y": [
            null,
            0.5
          ],
          "diags": [
            null,
            {
              "accesses": 7,
              "p50_ns": 1.25e+06,
              "p99_ns": 2.5e+06,
              "p999_ns": null,
              "mean_lfb_occupancy": 3e+06,
              "mean_chip_occupancy": 4.5e+06,
              "sim_events": 11
            }
          ],
          "metrics": [
            null,
            {
              "window_us": 2e+06,
              "last_span_us": 1.5e+06,
              "coalesced": 2,
              "starts": [
                3,
                1
              ],
              "completes": [
                2,
                2
              ],
              "retries": [
                1,
                0
              ],
              "timeouts": [
                1,
                0
              ],
              "abandoned": [
                0,
                1
              ],
              "switches": [
                4,
                5
              ],
              "p50_ns": [
                1e+06,
                null
              ],
              "p99_ns": [
                2e+06,
                3e+06
              ],
              "p999_ns": [
                null,
                4e+06
              ],
              "lfb_mean": [
                1.5e+06,
                2e+06
              ],
              "lfb_max": [
                10,
                9
              ],
              "chipq_mean": [
                null,
                1e+07
              ],
              "chipq_max": [
                14,
                0
              ],
              "sq_mean": [
                1e+06,
                1e+06
              ],
              "sq_max": [
                2,
                3
              ],
              "cq_mean": [
                3e+06,
                null
              ],
              "cq_max": [
                1,
                1
              ],
              "runnable_mean": [
                5e+06,
                6e+06
              ],
              "runnable_max": [
                7,
                8
              ],
              "phase_names": [
                "issue",
                "device"
              ],
              "phases": [
                [
                  2000,
                  5000
                ],
                [
                  0,
                  9000
                ]
              ],
              "total_starts": 4,
              "total_completes": 4,
              "total_retries": 1,
              "total_timeouts": 1,
              "total_abandoned": 1,
              "total_switches": 9,
              "total_p50_ns": 1.5e+06,
              "total_p99_ns": null,
              "total_p999_ns": 4e+06
            }
          ],
          "attrib": [
            null,
            {
              "label": "a",
              "phases": [
                {
                  "phase": "issue",
                  "sum_ps": 2000,
                  "count": 2,
                  "p50_ns": 1e+06,
                  "p99_ns": null,
                  "max_ns": 2e+06
                },
                {
                  "phase": "device",
                  "sum_ps": 5000,
                  "count": 1,
                  "p50_ns": 5e+06,
                  "p99_ns": 6e+06,
                  "max_ns": 7e+06
                }
              ],
              "accesses": 2,
              "total_ps": 7000,
              "mismatches": 1
            }
          ],
          "fleet": [
            null,
            {
              "policy": "round-robin",
              "shape": "poisson",
              "mech": "swqueue",
              "rho": 1.5e+06,
              "offered_per_sec": 1.7e+07,
              "completed_per_sec": 1.6e+07,
              "arrived": 5,
              "completed": 4,
              "elapsed_seconds": 2e+06,
              "p50_ns": 3e+06,
              "p99_ns": null,
              "p999_ns": 8e+06,
              "instances": [
                {
                  "arrived": 5,
                  "completed": 4,
                  "windows": 3,
                  "saturated_windows": 1,
                  "peak_outstanding": 2,
                  "p50_ns": 1.1e+06,
                  "p99_ns": 2.2e+06,
                  "p999_ns": null
                }
              ]
            }
          ]
        },
        {
          "label": "b",
          "x": [
            1
          ],
          "y": [
            2e+06
          ]
        }
      ]
    }
  ]
}
`
	if got := string(b); got != want {
		t.Fatalf("report bytes changed:\n got: %s\nwant: %s", got, want)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if again, err := back.Encode(); err != nil || !bytes.Equal(again, b) {
		t.Fatalf("decode then encode changed the bytes (err %v):\n%s", err, again)
	}
}

func TestSeriesAccessors(t *testing.T) {
	s := &Series{Label: "s",
		X: []Float{1, 2, 4, 8},
		Y: []Float{0.2, Float(math.NaN()), 1.0, 0.95}}
	if got := s.YAt(4); got != 1.0 {
		t.Fatalf("YAt(4) = %v", got)
	}
	if !math.IsNaN(s.YAt(3)) || !math.IsNaN(s.YAt(2)) {
		t.Fatal("missing cells should read as NaN")
	}
	if x, y := s.Peak(); x != 4 || y != 1.0 {
		t.Fatalf("Peak = (%v, %v)", x, y)
	}
	if got := s.KneeX(0.9); got != 4 {
		t.Fatalf("KneeX(0.9) = %v", got)
	}
	if got := s.Last(); got != 0.95 {
		t.Fatalf("Last = %v", got)
	}
	var nilSeries *Series
	if !math.IsNaN(nilSeries.YAt(1)) || !math.IsNaN(nilSeries.Last()) || nilSeries.FleetAt(1) != nil ||
		!math.IsNaN(nilSeries.KneeX(0.9)) {
		t.Fatal("nil series accessors must degrade to NaN/zero")
	}
	var nilTable *Table
	if _, y := nilTable.FindSeries("s").Peak(); !math.IsNaN(y) {
		t.Fatal("a series of an absent table must read as NaN")
	}
}

func TestCompareCleanOnIdentical(t *testing.T) {
	d := Compare(sample(), sample(), DefaultDiffOpt())
	if !d.Clean() {
		t.Fatalf("identical reports not clean: %s", d.Summary())
	}
	if d.Compared != 9 {
		t.Fatalf("compared %d cells, want 9", d.Compared)
	}
}

func TestCompareFlagsPerturbedCell(t *testing.T) {
	got := sample()
	got.Tables[0].Series[0].Y[2] = 0.6 // was 0.9: 33% drift
	d := Compare(got, sample(), DefaultDiffOpt())
	if d.Clean() {
		t.Fatal("33% drift passed the gate")
	}
	if len(d.Exceeded) != 1 {
		t.Fatalf("Exceeded = %v", d.Exceeded)
	}
	c := d.Exceeded[0]
	if c.Table != "fig3" || c.Series != "1us" || c.X != 4 {
		t.Fatalf("wrong cell flagged: %+v", c)
	}
}

func TestCompareAbsoluteFloor(t *testing.T) {
	got := sample()
	// 0.05 -> 0.058: 16% relative but only 0.008 absolute, under the floor.
	got.Tables[0].Series[1].Y[0] = 0.058
	d := Compare(got, sample(), DefaultDiffOpt())
	if !d.Clean() {
		t.Fatalf("sub-floor drift failed the gate: %s", d.Summary())
	}
	if d.MaxRel < 0.1 {
		t.Fatalf("MaxRel = %v, drift should still be reported", d.MaxRel)
	}
}

func TestCompareMissingAndExtra(t *testing.T) {
	got := sample()
	got.Tables[0].Series = got.Tables[0].Series[:1] // drop "2us"
	got.Tables = append(got.Tables, &Table{ID: "fig99",
		Series: []*Series{{Label: "n", X: []Float{1}, Y: []Float{1}}}})
	d := Compare(got, sample(), DefaultDiffOpt())
	if d.Clean() {
		t.Fatal("missing series passed the gate")
	}
	if len(d.MissingSeries) != 1 || d.MissingSeries[0] != "fig3/2us" {
		t.Fatalf("MissingSeries = %v", d.MissingSeries)
	}
	if len(d.ExtraTables) != 1 || d.ExtraTables[0] != "fig99" {
		t.Fatalf("ExtraTables = %v", d.ExtraTables)
	}

	// Extra-only growth (no missing cells) stays clean.
	got2 := sample()
	got2.Tables = append(got2.Tables, &Table{ID: "fig99",
		Series: []*Series{{Label: "n", X: []Float{1}, Y: []Float{1}}}})
	if d2 := Compare(got2, sample(), DefaultDiffOpt()); !d2.Clean() {
		t.Fatal("a grown sweep should not fail the diff")
	}
}

func TestCompareMissingCellOnGotNaN(t *testing.T) {
	got := sample()
	got.Tables[0].Series[0].Y[1] = Float(math.NaN())
	d := Compare(got, sample(), DefaultDiffOpt())
	if d.Clean() || len(d.MissingCells) != 1 {
		t.Fatalf("NaN-for-finite cell not flagged: %s", d.Summary())
	}
	// The reverse — baseline NaN, candidate finite — is not a regression.
	d2 := Compare(sample(), got, DefaultDiffOpt())
	if !d2.Clean() {
		t.Fatalf("finite-for-NaN cell failed the gate: %s", d2.Summary())
	}
}
