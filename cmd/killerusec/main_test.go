package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/trace"
)

func tinySuite() experiments.Suite {
	s := experiments.Quick()
	s.Iterations = 200
	s.AppLookups = 40
	s.Threads = []int{1, 4}
	return s
}

func TestRunOneKnownIDs(t *testing.T) {
	s := tinySuite()
	ids := []string{"2", "3", "4", "6", "7", "lfb", "switch", "swqopts", "kernelq", "smt", "writes", "tail"}
	for _, id := range ids {
		tables := experiments.RunPlan(experiments.PlanFor(s, id), nil)
		if len(tables) == 0 {
			t.Errorf("PlanFor(%q) returned nothing", id)
			continue
		}
		for _, tb := range tables {
			if len(tb.Series) == 0 {
				t.Errorf("PlanFor(%q): table %s has no series", id, tb.ID)
			}
		}
	}
}

func TestRunOneFig10Subfigure(t *testing.T) {
	s := tinySuite()
	s.UseReplay = false // keep the smoke test fast
	tables := experiments.RunPlan(experiments.PlanFor(s, "10b"), nil)
	if len(tables) != 1 || tables[0].ID != "fig10b" {
		t.Fatalf("PlanFor(10b) = %v", tables)
	}
}

func TestRunOneUnknownID(t *testing.T) {
	if got := experiments.RunPlan(experiments.PlanFor(tinySuite(), "nonsense"), nil); got != nil {
		t.Errorf("unknown id returned %v", got)
	}
}

func TestWriteCSVs(t *testing.T) {
	dir := t.TempDir()
	s := tinySuite()
	tables := experiments.RunPlan(experiments.PlanFor(s, "2"), nil)
	if err := writeCSVs(dir, tables); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "work instructions per access,") {
		t.Errorf("csv header wrong: %q", string(data)[:40])
	}
}

// TestTracedSweep exercises the -trace wiring: attaching a recorder to
// the suite's base config makes every measured run of a figure land in
// the recorder as its own schema-valid process.
func TestTracedSweep(t *testing.T) {
	s := tinySuite()
	rec := trace.NewRecorder()
	s.Base.Trace = rec
	tables := experiments.RunPlan(experiments.PlanFor(s, "4"), nil)
	if len(tables) == 0 {
		t.Fatal("PlanFor(4) returned nothing")
	}
	if rec.Runs() == 0 || rec.Events() == 0 {
		t.Fatalf("traced sweep recorded %d runs / %d events", rec.Runs(), rec.Events())
	}
	path := filepath.Join(t.TempDir(), "fig4.json")
	if err := rec.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum, err := trace.ReadSummary(f)
	if err != nil {
		t.Fatalf("sweep trace fails schema validation: %v", err)
	}
	if len(sum.Runs) != rec.Runs() {
		t.Errorf("parsed %d runs, recorder has %d", len(sum.Runs), rec.Runs())
	}
	for _, rs := range sum.Runs {
		if rs.OpenSpans != 0 {
			t.Errorf("run %q left %d spans open", rs.Label, rs.OpenSpans)
		}
	}
}

// TestTracedDevices: the device-class presets build their own
// platforms, and -trace still records their runs without changing the
// table.
func TestTracedDevices(t *testing.T) {
	s := tinySuite()
	plain := experiments.RunPlan(experiments.PlanFor(s, "devices"), nil)
	rec := trace.NewRecorder()
	s.Base.Trace = rec
	traced := experiments.RunPlan(experiments.PlanFor(s, "devices"), nil)
	if rec.Runs() == 0 || rec.Events() == 0 {
		t.Fatalf("traced device sweep recorded %d runs / %d events", rec.Runs(), rec.Events())
	}
	if len(plain) != 1 || len(traced) != 1 || traced[0].Text() != plain[0].Text() {
		t.Errorf("tracing changed the device table:\n%s\nwant\n%s", traced[0].Text(), plain[0].Text())
	}
}

func TestRunOneAliases(t *testing.T) {
	s := tinySuite()
	for _, id := range []string{"fig3", "ablation-lfb", "ext-smt"} {
		if experiments.RunPlan(experiments.PlanFor(s, id), nil) == nil {
			t.Errorf("canonical id %q not accepted", id)
		}
	}
}

// TestFlagArgNames pins the argument names -h prints: flag.UnquoteUsage
// takes a backquoted word in a usage string as the argument's name, so
// a command name quoted that way would replace the type.
func TestFlagArgNames(t *testing.T) {
	for name, want := range map[string]string{"json": "string", "attrib": ""} {
		f := flag.Lookup(name)
		if f == nil {
			t.Fatalf("-%s is not defined", name)
		}
		if got, _ := flag.UnquoteUsage(f); got != want {
			t.Errorf("-%s argument name = %q, want %q", name, got, want)
		}
	}
}
