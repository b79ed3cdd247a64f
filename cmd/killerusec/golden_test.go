package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestFig2CSVGolden pins the exact CSV bytes of a small deterministic
// figure: the simulation is seeded and wall-clock free, so any byte of
// drift is a real change to measured results (or to the CSV layout) and
// must be reviewed via `go test ./cmd/killerusec -run Golden -update`.
func TestFig2CSVGolden(t *testing.T) {
	s := tinySuite()
	tables := experiments.RunPlan(experiments.PlanFor(s, "2"), nil)
	if len(tables) != 1 {
		t.Fatalf("PlanFor(2) returned %d tables", len(tables))
	}
	got := []byte(tables[0].CSV())

	golden := filepath.Join("testdata", "fig2_quick.csv")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("fig2 CSV drifted from golden (run with -update to refresh):\ngot:\n%swant:\n%s", got, want)
	}

	// -outdir must write the same bytes under <dir>/<id>.csv.
	dir := t.TempDir()
	if err := writeCSVs(dir, tables); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(filepath.Join(dir, "fig2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(want) {
		t.Error("-outdir CSV differs from stdout CSV for the same table")
	}
}
