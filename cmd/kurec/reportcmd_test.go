package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// captureStdout runs f with os.Stdout redirected and returns what it
// printed alongside its error.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	file, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	saved := os.Stdout
	os.Stdout = file
	runErr := f()
	os.Stdout = saved
	if _, err := file.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(file)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestReportCommandsGolden pins the stdout and error text of the three
// report readers (metrics, blame, fleet) across their argument shapes:
// the report path before the flags, after them, missing, a report
// lacking the command's section, and a selection that matches nothing.
func TestReportCommandsGolden(t *testing.T) {
	dir := t.TempDir()
	paths := map[string]string{}
	for name, r := range map[string]*report.Report{
		"metrics": metricsReport(true),
		"blame":   blameReport(),
		"fleet":   fleetReport(),
	} {
		paths[name] = filepath.Join(dir, name+".json")
		if err := r.WriteFile(paths[name]); err != nil {
			t.Fatal(err)
		}
	}
	cmds := map[string]func([]string) error{"metrics": cmdMetrics, "blame": cmdBlame, "fleet": cmdFleet}
	// {cmd, case, report fixture ("" for none), args with "@" for its path}
	cases := [][]string{
		{"metrics", "path-first", "metrics", "@ -series 1us"},
		{"metrics", "path-last", "metrics", "-csv -table fig3 @"},
		{"metrics", "no-path", "", "-csv"},
		{"metrics", "no-section", "blame", "@"},
		{"metrics", "no-section-csv", "blame", "@ -csv"},
		{"metrics", "empty-selection", "metrics", "@ -table nope"},
		{"metrics", "empty-selection-csv", "metrics", "-csv -series nope @"},
		{"blame", "path-first", "blame", "@ -top"},
		{"blame", "path-last", "blame", "-table fig7 -series swq @"},
		{"blame", "path-first-csv", "blame", "@ -csv"},
		{"blame", "diff", "blame", "-diff swq,pf @"},
		{"blame", "no-path", "", ""},
		{"blame", "no-section", "fleet", "@ -top"},
		{"blame", "empty-selection", "blame", "@ -series nope"},
		{"fleet", "path-first", "fleet", "@ -instances"},
		{"fleet", "path-last", "fleet", "-csv @"},
		{"fleet", "text", "fleet", "-table cluster-policies @"},
		{"fleet", "no-path", "", "-instances"},
		{"fleet", "no-section", "metrics", "@"},
		{"fleet", "empty-selection", "fleet", "@ -table nope -csv"},
	}
	var b strings.Builder
	for _, c := range cases {
		var args []string
		for _, a := range strings.Fields(c[3]) {
			if a == "@" {
				a = paths[c[2]]
			}
			args = append(args, a)
		}
		out, err := captureStdout(t, func() error { return cmds[c[0]](args) })
		fmt.Fprintf(&b, "== %s %s: %s\n%s", c[0], c[1], c[3], out)
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
		}
	}
	got := strings.ReplaceAll(b.String(), dir+string(filepath.Separator), "")

	golden := filepath.Join("testdata", "report_commands.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("report commands drifted from %s (run with -update after review):\ngot:\n%swant:\n%s", golden, got, want)
	}
}
