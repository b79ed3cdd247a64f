package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestExtensionCSVGolden pins the exact CSV bytes of every extension
// and fault table at parSuite size. The simulation is seeded and
// wall-clock free, so any byte of drift is a real change to measured
// results and must be reviewed via
// `go test ./internal/experiments -run ExtensionCSVGolden -update`.
func TestExtensionCSVGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the extension plan")
	}
	s := parSuite()
	var b strings.Builder
	for i, tb := range RunPlan(s.ExtensionPlan(), nil) {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(tb.CSV())
	}
	got := b.String()

	golden := filepath.Join("testdata", "ext_par.csv")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("extension CSV drifted from golden (run with -update to refresh):\ngot:\n%swant:\n%s", got, want)
	}
}
