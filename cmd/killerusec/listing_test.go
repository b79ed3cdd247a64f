package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// runMain runs the command in-process with the given arguments and
// returns what it printed on stdout. It is meant only for invocations
// that return from main (listings), not ones that exit.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	saved := os.Args
	stdout := os.Stdout
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		os.Args, os.Stdout = saved, stdout
		f.Close()
		flag.VisitAll(func(fl *flag.Flag) {
			for _, a := range args {
				if a == "-"+fl.Name {
					fl.Value.Set(fl.DefValue)
				}
			}
		})
	}()
	os.Args = append([]string{"killerusec"}, args...)
	os.Stdout = f
	main()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestListingsGolden pins the exact stdout of -list and -plans: both
// listings are rendered from the experiment catalogue, and a change to
// how they are produced must leave their bytes alone (refresh with
// `go test ./cmd/killerusec -run Golden -update` only for a reviewed
// change to the catalogue).
func TestListingsGolden(t *testing.T) {
	for _, c := range []struct{ flag, golden string }{
		{"-list", "list.txt"},
		{"-plans", "plans.txt"},
	} {
		got := runMain(t, c.flag)
		golden := filepath.Join("testdata", c.golden)
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
			t.Errorf("killerusec %s drifted from %s:\ngot:\n%swant:\n%s", c.flag, golden, got, want)
		}
	}
}
