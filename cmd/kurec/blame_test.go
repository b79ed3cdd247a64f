package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/report"
)

// blameReport builds a two-series report with attribution: a "swq"
// series whose blame shifts from queue_wait into completion_wait with
// x, and a transit-dominated "pf" series.
func blameReport() *report.Report {
	sum := func(label string, issue, qw, transit, cw int64) *report.AttribSummary {
		return &report.AttribSummary{
			Label: label,
			Phases: []report.PhaseSum{
				{Phase: "issue", SumPs: issue, Count: 10},
				{Phase: "queue_wait", SumPs: qw, Count: 10},
				{Phase: "transit", SumPs: transit, Count: 10},
				{Phase: "completion_wait", SumPs: cw, Count: 10},
			},
			Accesses: 10,
			TotalPs:  issue + qw + transit + cw,
		}
	}
	swq := &report.Series{
		Label:  "swq",
		X:      []report.Float{1, 8},
		Y:      []report.Float{0.3, 0.5},
		Attrib: []*report.AttribSummary{sum("a", 1000, 70000, 20000, 1000), sum("b", 1000, 20000, 20000, 60000)},
	}
	pf := &report.Series{
		Label:  "pf",
		X:      []report.Float{1, 8},
		Y:      []report.Float{0.4, 0.9},
		Attrib: []*report.AttribSummary{sum("c", 1000, 0, 80000, 1000), nil},
	}
	return &report.Report{
		Schema: report.SchemaName, Version: report.SchemaVersion, Tool: "test",
		Attribution: &report.AttributionMeta{Version: report.AttributionVersion,
			Phases: []string{"issue", "queue_wait", "transit", "completion_wait"}},
		Tables: []*report.Table{{ID: "fig7", Title: "t", XLabel: "x", YLabel: "y",
			Series: []*report.Series{swq, pf}}},
	}
}

func writeBlameReport(t *testing.T) string {
	t.Helper()
	path := t.TempDir() + "/run.json"
	if err := blameReport().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBlameSelectsAttributedCells(t *testing.T) {
	r := blameReport()
	cells := selectCells(r, "", "", attribOf)
	if len(cells) != 3 {
		t.Fatalf("selected %d cells, want 3 (nil attrib must be skipped)", len(cells))
	}
	if cells := selectCells(r, "fig7", "swq", attribOf); len(cells) != 2 {
		t.Fatalf("series filter selected %d cells, want 2", len(cells))
	}
	if cells := selectCells(r, "nope", "", attribOf); len(cells) != 0 {
		t.Fatalf("table filter selected %d cells, want 0", len(cells))
	}
}

func TestBlameTopNamesDominantPhase(t *testing.T) {
	var buf bytes.Buffer
	if err := writeBlameTop(&buf, selectCells(blameReport(), "", "swq", attribOf)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("top output has %d lines, want header + 2 cells:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[1], "queue_wait") {
		t.Errorf("x=1 dominant phase line = %q, want queue_wait", lines[1])
	}
	if !strings.Contains(lines[2], "completion_wait") {
		t.Errorf("x=8 dominant phase line = %q, want completion_wait", lines[2])
	}
}

func TestBlameCSVIsPivotStable(t *testing.T) {
	var buf bytes.Buffer
	if err := writeBlameCSV(&buf, selectCells(blameReport(), "", "", attribOf)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// 3 attributed cells x 4 phases + header; zero phases still get rows.
	if len(lines) != 1+3*4 {
		t.Fatalf("csv has %d lines, want %d:\n%s", len(lines), 1+3*4, buf.String())
	}
	if lines[0] != "table,series,x,accesses,total_ps,mismatches,phase,sum_ps,frac,count,p50_ns,p99_ns,max_ns" {
		t.Fatalf("unexpected header %q", lines[0])
	}
	if !strings.Contains(buf.String(), "fig7,pf,1,10,82000,0,queue_wait,0,0,") {
		t.Errorf("all-zero phase row missing:\n%s", buf.String())
	}
}

func TestBlameDiff(t *testing.T) {
	var buf bytes.Buffer
	if err := blameDiff(&buf, blameReport(), "fig7", "swq,pf"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Only x=1 is attributed on both sides (pf's x=8 cell is nil).
	if strings.Count(out, "swq vs pf") != 1 {
		t.Fatalf("diff should cover exactly the one shared x:\n%s", out)
	}
	// swq spends 7ns more in queue_wait, 6ns less in transit per access
	// (70000 vs 0 ps and 20000 vs 80000 ps over 10 accesses).
	if !strings.Contains(out, "queue_wait") || !strings.Contains(out, "+7ns") {
		t.Errorf("queue_wait delta missing or unsigned:\n%s", out)
	}
	if !strings.Contains(out, "-6ns") {
		t.Errorf("transit delta missing:\n%s", out)
	}
	if err := blameDiff(&buf, blameReport(), "", "swq"); err == nil {
		t.Error("one-label -diff should fail")
	}
	if err := blameDiff(&buf, blameReport(), "", "swq,nope"); err == nil {
		t.Error("unknown label -diff should fail")
	}
}

func TestBlameCommand(t *testing.T) {
	path := writeBlameReport(t)
	if err := cmdBlame([]string{path, "-top"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBlame([]string{path, "-csv"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBlame([]string{path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBlame([]string{path, "-diff", "swq,pf"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBlame([]string{path, "-series", "nope"}); err == nil {
		t.Error("empty selection should fail")
	}
	if err := cmdBlame([]string{}); err == nil {
		t.Error("blame without a report should fail")
	}

	// A report without an attribution section must be rejected with a
	// hint, not rendered empty.
	plain := blameReport()
	for _, tb := range plain.Tables {
		for _, s := range tb.Series {
			s.Attrib = nil
		}
	}
	plain.Attribution = nil
	pp := t.TempDir() + "/plain.json"
	if err := plain.WriteFile(pp); err != nil {
		t.Fatal(err)
	}
	if err := cmdBlame([]string{pp}); err == nil || !strings.Contains(err.Error(), "-attrib") {
		t.Errorf("plain report error = %v, want a -attrib hint", err)
	}
}
