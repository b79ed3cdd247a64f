package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/attrib"
	"repro/internal/report"
)

// metricsReport builds a one-cell report whose time series carries two
// windows, optionally with attribution phase columns.
func metricsReport(withPhases bool) *report.Report {
	ts := &report.TimeSeries{
		WindowUs:   10,
		LastSpanUs: 4,
		Starts:     []uint64{5, 3},
		Completes:  []uint64{4, 4},
		Retries:    []uint64{0, 1},
		Timeouts:   []uint64{0, 0},
		Abandoned:  []uint64{0, 0},
		Switches:   []uint64{2, 2},
		P50Ns:      []report.Float{100, 110},
		P99Ns:      []report.Float{200, 210},
		P999Ns:     []report.Float{300, 310},
		LFBMean:    []report.Float{1, 2}, LFBMax: []int{2, 3},
		ChipMean: []report.Float{0, 0}, ChipMax: []int{0, 0},
		SQMean: []report.Float{0, 0}, SQMax: []int{0, 0},
		CQMean: []report.Float{0, 0}, CQMax: []int{0, 0},
		RunnableMean: []report.Float{1, 1}, RunnableMax: []int{1, 1},
	}
	if withPhases {
		ts.PhaseNames = attrib.Names()
		row := func(qw int64) []int64 {
			r := make([]int64, len(ts.PhaseNames))
			for j, name := range ts.PhaseNames {
				if name == "queue_wait" {
					r[j] = qw
				}
			}
			return r
		}
		ts.Phases = [][]int64{row(1500), row(2500)}
	}
	return &report.Report{
		Schema: report.SchemaName, Version: report.SchemaVersion, Tool: "test",
		Timeseries: &report.TimeseriesMeta{Version: report.TimeseriesVersion, WindowUs: 10, MaxWindows: 512},
		Tables: []*report.Table{{ID: "fig3", Title: "t", XLabel: "x", YLabel: "y",
			Series: []*report.Series{{
				Label: "1us", X: []report.Float{8}, Y: []report.Float{0.9},
				Metrics: []*report.TimeSeries{ts},
			}}}},
	}
}

func TestMetricsCSVPhaseColumns(t *testing.T) {
	grab := func(withPhases bool) []string {
		r := metricsReport(withPhases)
		var buf bytes.Buffer
		cells := selectCells(r, "", "", metricsOf)
		if err := writeMetricsCSV(&buf, cells); err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSpace(buf.String()), "\n")
	}

	with := grab(true)
	without := grab(false)
	if with[0] != without[0] {
		t.Fatalf("header depends on phase presence:\n%s\n%s", with[0], without[0])
	}
	if !strings.HasSuffix(with[0], ",timeout_slop_ps") || !strings.Contains(with[0], ",queue_wait_ps,") {
		t.Fatalf("header lacks taxonomy phase columns: %s", with[0])
	}
	if !strings.HasSuffix(with[1], ",1500,0,0,0,0,0,0") && !strings.Contains(with[1], ",1500,") {
		t.Errorf("window 0 queue_wait_ps missing: %s", with[1])
	}
	if !strings.Contains(with[2], ",2500,") {
		t.Errorf("window 1 queue_wait_ps missing: %s", with[2])
	}
	// A phase-less cell still fills every phase column, with zeros.
	cols := strings.Split(without[1], ",")
	hdr := strings.Split(without[0], ",")
	if len(cols) != len(hdr) {
		t.Fatalf("row has %d fields, header %d", len(cols), len(hdr))
	}
	for _, c := range cols[len(cols)-len(attrib.Names()):] {
		if c != "0" {
			t.Errorf("phase-less row has non-zero phase field %q: %s", c, without[1])
		}
	}
}

func TestMetricsCSVStableWithoutTimeseries(t *testing.T) {
	// -csv on a report with no timeseries section prints the header and
	// succeeds; summary mode keeps the actionable error.
	r := metricsReport(false)
	r.Timeseries = nil
	r.Tables[0].Series[0].Metrics = nil
	path := t.TempDir() + "/plain.json"
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := cmdMetrics([]string{path, "-csv"}); err != nil {
		t.Fatalf("-csv on a plain report: %v", err)
	}
	if err := cmdMetrics([]string{path}); err == nil || !strings.Contains(err.Error(), "-metrics") {
		t.Errorf("summary mode error = %v, want a -metrics hint", err)
	}
}

func TestMetricsCommand(t *testing.T) {
	path := t.TempDir() + "/run.json"
	if err := metricsReport(true).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := cmdMetrics([]string{path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMetrics([]string{path, "-csv", "-table", "fig3", "-series", "1us"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMetrics([]string{path, "-series", "nope"}); err == nil {
		t.Error("summary mode with empty selection should fail")
	}
	if err := cmdMetrics([]string{}); err == nil {
		t.Error("metrics without a report should fail")
	}
}
