// Command kurec manages recorded device-access traces — the artifact of
// the paper's two-run methodology (§IV-A): a recording run captures an
// application's (address, data) sequence, which the measured run streams
// from the emulator's on-board DRAM.
//
// Usage:
//
//	kurec record -workload bfs -out trace      # record one trace per core
//	kurec info trace.core0
//	kurec verify trace.core0                   # replay in order, check it drains
//	kurec trace -mech swqueue -out swq.json    # Perfetto trace + span summary
//	kurec trace -in swq.json                   # validate an exported trace
//	kurec check -in run.json -claims           # schema + paper-claims suite
//	kurec check -in run.json -against base.json  # cell-by-cell regression diff
//	kurec cache stats -dir .kucache            # disk cache usage per build stamp
//	kurec cache gc -dir .kucache               # evict entries from stale builds
//	kurec top job-0003                         # live flight-recorder view of a kurecd job
//	kurec metrics run.json -csv                # flatten a report's time series to CSV
//	kurec blame run.json -top                  # per-phase latency blame per cell
//	kurec fleet run.json -instances            # fleet cells + per-instance saturation
//
// Workloads: ubench, bfs, bloom, memcached, ptrchase.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "cache":
		err = cmdCache(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "metrics":
		err = cmdMetrics(os.Args[2:])
	case "blame":
		err = cmdBlame(os.Args[2:])
	case "fleet":
		err = cmdFleet(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kurec:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: kurec record|info|verify|trace|check|cache|top|metrics|blame|fleet [flags]")
}

// pickWorkload describes the named workload with CLI-scale parameters.
func pickWorkload(name string, lookups int) (experiments.WorkloadSpec, error) {
	work := workload.DefaultWorkCount
	switch name {
	case "ubench":
		return experiments.WorkloadSpec{Kind: name, Iters: lookups, Work: work, Reads: 1}, nil
	case "bfs":
		return experiments.WorkloadSpec{Kind: name, BFSScale: 10, BFSEdgeFactor: 16, BFSSeed: experiments.KroneckerSeed,
			BFSSources: []int{1, 33, 77, 123}, BFSMaxVisits: lookups/4 + 8, Work: work}, nil
	case "bloom":
		return experiments.WorkloadSpec{Kind: name, BloomBits: 1 << 20, BloomHashes: 4, BloomKeys: 4096,
			Lookups: lookups, Work: work}, nil
	case "memcached":
		return experiments.WorkloadSpec{Kind: name, MCItems: 4096, MCValueLines: 4, Lookups: lookups, Work: work}, nil
	case "ptrchase":
		return experiments.WorkloadSpec{Kind: name, ChaseNodes: 4096, Iters: lookups, Work: work}, nil
	}
	return experiments.WorkloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	wl := fs.String("workload", "ubench", "workload to record (ubench, bfs, bloom, memcached, ptrchase)")
	out := fs.String("out", "trace", "output path prefix; one .coreN file per core")
	cores := fs.Int("cores", 1, "cores")
	threads := fs.Int("threads", 8, "threads per core")
	mech := fs.String("mech", "prefetch", "mechanism shaping the access order (prefetch, swqueue, kernelq)")
	lookups := fs.Int("lookups", 500, "per-core lookups/iterations")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Validate before any simulation starts: a recording run can take
	// minutes, so bad parameters must fail immediately.
	if *cores < 1 {
		return fmt.Errorf("-cores %d must be at least 1", *cores)
	}
	if *threads < 1 {
		return fmt.Errorf("-threads %d must be at least 1", *threads)
	}
	if *lookups < 1 {
		return fmt.Errorf("-lookups %d must be at least 1", *lookups)
	}
	switch *mech {
	case "prefetch", "swqueue", "kernelq":
	default:
		return fmt.Errorf("unknown -mech %q (want prefetch, swqueue, or kernelq)", *mech)
	}

	w, err := pickWorkload(*wl, *lookups)
	if err != nil {
		return err
	}
	cfg := platform.Default().WithCores(*cores)
	recs, err := core.RecordAccessTrace(cfg, w.Build(), *threads, *mech)
	if err != nil {
		return err
	}
	for coreID := 0; coreID < *cores; coreID++ {
		rec := recs[coreID]
		path := fmt.Sprintf("%s.core%d", *out, coreID)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if _, err := rec.WriteTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("%s: %d accesses, %d bytes on-board\n", path, rec.Len(), rec.Bytes())
	}
	return nil
}

// describe summarizes a recording for `info`.
func describe(rec *replay.Recording) string {
	unique := map[uint64]bool{}
	zero := 0
	for _, e := range rec.Entries {
		unique[e.Addr] = true
		if e.Data == nil || bytes.Equal(e.Data, replay.ZeroLine()) {
			zero++
		}
	}
	s := fmt.Sprintf("accesses:      %d\n", rec.Len())
	s += fmt.Sprintf("unique lines:  %d\n", len(unique))
	s += fmt.Sprintf("zero lines:    %d\n", zero)
	s += fmt.Sprintf("footprint:     %d bytes of device data\n", len(unique)*replay.LineSize)
	s += fmt.Sprintf("on-board size: %d bytes\n", rec.Bytes())
	if rec.Len() > 0 {
		n := rec.Len()
		if n > 4 {
			n = 4
		}
		s += "first accesses:"
		for _, e := range rec.Entries[:n] {
			s += fmt.Sprintf(" %#x", e.Addr)
		}
		s += "\n"
	}
	return s
}

func cmdInfo(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("info needs exactly one trace file")
	}
	rec, err := readTrace(args[0])
	if err != nil {
		return err
	}
	fmt.Print(describe(rec))
	return nil
}

// verifyTrace replays the recording in order through a fresh module and
// reports an error if anything fails to match or drain.
func verifyTrace(rec *replay.Recording) error {
	m := replay.NewModule(rec, 64, 0)
	for i, e := range rec.Entries {
		if _, ok := m.Lookup(e.Addr); !ok {
			return fmt.Errorf("entry %d (addr %#x) failed to match", i, e.Addr)
		}
	}
	if !m.Drained() {
		return fmt.Errorf("%d entries left unmatched", m.Remaining())
	}
	return nil
}

func cmdVerify(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("verify needs exactly one trace file")
	}
	rec, err := readTrace(args[0])
	if err != nil {
		return err
	}
	if err := verifyTrace(rec); err != nil {
		return err
	}
	fmt.Printf("ok: %d accesses replay cleanly\n", rec.Len())
	return nil
}

func readTrace(path string) (*replay.Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return replay.ReadRecording(f)
}
