package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/report"
)

// fleetReport builds a one-table report with fleet summaries: a
// round-robin series with a saturated high-load cell, and a
// least-outstanding series that stays clean.
func fleetReport() *report.Report {
	sum := func(policy string, rho float64, sat int) *report.FleetSummary {
		return &report.FleetSummary{
			Policy: policy, Shape: "poisson", Mech: "prefetch",
			Rho: report.Float(rho), OfferedPerSec: 1e6, CompletedPerSec: 9.5e5,
			Arrived: 200, Completed: 200, ElapsedSeconds: 2e-4,
			P50Ns: 900, P99Ns: 4000, P999Ns: 9000,
			Instances: []report.FleetInstance{
				{Arrived: 100, Completed: 100, Windows: 8, SaturatedWindows: sat, PeakOutstanding: 20, P50Ns: 900, P99Ns: 4000, P999Ns: 9000},
				{Arrived: 100, Completed: 100, Windows: 8, PeakOutstanding: 17, P50Ns: 900, P99Ns: 3900, P999Ns: 8000},
			},
		}
	}
	rr := &report.Series{
		Label: "round-robin",
		X:     []report.Float{0.5, 0.9},
		Y:     []report.Float{2.0, 5.3},
		Fleet: []*report.FleetSummary{sum("round-robin", 0.5, 0), sum("round-robin", 0.9, 3)},
	}
	lo := &report.Series{
		Label: "least-outstanding",
		X:     []report.Float{0.5, 0.9},
		Y:     []report.Float{2.1, 4.0},
		Fleet: []*report.FleetSummary{sum("least-outstanding", 0.5, 0), nil},
	}
	return &report.Report{
		Schema: report.SchemaName, Version: report.SchemaVersion, Tool: "test",
		Cluster: &report.ClusterMeta{Version: report.ClusterVersion,
			Policies: []string{"round-robin", "least-outstanding"},
			Shapes:   []string{"poisson", "bursty", "saturate"}},
		Tables: []*report.Table{{ID: "cluster-policies", Title: "t", XLabel: "x", YLabel: "y",
			Series: []*report.Series{rr, lo}}},
	}
}

func TestFleetReportRoundTrips(t *testing.T) {
	path := t.TempDir() + "/run.json"
	if err := fleetReport().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	r, err := report.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f := r.Table("cluster-policies").FindSeries("round-robin").FleetAt(0.9)
	if f == nil || f.Instances[0].SaturatedWindows != 3 {
		t.Fatalf("fleet summary lost in round trip: %+v", f)
	}
}

func TestFleetSelectsCells(t *testing.T) {
	r := fleetReport()
	if cells := selectCells(r, "", "", fleetOf); len(cells) != 3 {
		t.Fatalf("selected %d cells, want 3 (nil fleet must be skipped)", len(cells))
	}
	if cells := selectCells(r, "cluster-policies", "least", fleetOf); len(cells) != 1 {
		t.Fatalf("series filter selected %d cells, want 1", len(cells))
	}
	if cells := selectCells(r, "nope", "", fleetOf); len(cells) != 0 {
		t.Fatalf("table filter selected %d cells, want 0", len(cells))
	}
}

func TestFleetTextShowsSaturation(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFleetCells(&buf, selectCells(fleetReport(), "", "", fleetOf), true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "3/16") {
		t.Fatalf("output does not aggregate saturated windows (want 3/16):\n%s", out)
	}
	if !strings.Contains(out, "inst 0") || !strings.Contains(out, "inst 1") {
		t.Fatalf("-instances output missing per-instance rows:\n%s", out)
	}
}

func TestFleetCSVOneRowPerInstance(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFleetCSV(&buf, selectCells(fleetReport(), "", "", fleetOf)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+3*2 {
		t.Fatalf("CSV has %d lines, want header + 3 cells x 2 instances:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[1], "cluster-policies,round-robin,0.5,round-robin,poisson,prefetch,") {
		t.Fatalf("unexpected first CSV row: %s", lines[1])
	}
}
