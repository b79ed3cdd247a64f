package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// goldenDigests pins every threaded mechanism's full Result — the
// measurement, the diagnostics including SimEvents, the flight-recorder
// series, the attribution summary and, when traced, the trace bytes —
// for each case of TestGoldenResults' matrix. A scheduler rewrite must
// reproduce these exactly: same instants, same order, same event count.
var goldenDigests = map[string]string{
	"prefetch/ubench/clean/cores=1/observed=false":      "2125f6f694dec9b0",
	"prefetch/ubench/clean/cores=1/observed=true":       "4e3dd02a1142cf07",
	"prefetch/ubench/clean/cores=2/observed=false":      "2c894c73208c9016",
	"prefetch/ubench/clean/cores=2/observed=true":       "d991e1c008dc1055",
	"prefetch/ubench/recover/cores=1/observed=false":    "9ec75b269e8dbcf2",
	"prefetch/ubench/recover/cores=1/observed=true":     "e016f80c1ca61b43",
	"prefetch/ubench/recover/cores=2/observed=false":    "8b8d486e62c7b8d7",
	"prefetch/ubench/recover/cores=2/observed=true":     "73688a7efa4b4152",
	"prefetch/ubench/abandon/cores=1/observed=false":    "81325ff2c06e62a0",
	"prefetch/ubench/abandon/cores=1/observed=true":     "e4a9114f68362482",
	"prefetch/ubench/abandon/cores=2/observed=false":    "c2329ddbd0bb36c5",
	"prefetch/ubench/abandon/cores=2/observed=true":     "a913899d4de2a46c",
	"prefetch/memcached/clean/cores=1/observed=false":   "6942fcbce8d9eda7",
	"prefetch/memcached/clean/cores=2/observed=false":   "c69a4a348ef328f7",
	"prefetch/memcached/recover/cores=1/observed=false": "385eb52e813d7b08",
	"prefetch/memcached/recover/cores=2/observed=false": "27c654d141aee35c",
	"smt/ubench/clean/cores=1/observed=false":           "eb3387fa756bb3bb",
	"smt/ubench/clean/cores=1/observed=true":            "72ef5f60a4ed0b61",
	"smt/ubench/clean/cores=2/observed=false":           "7e5bb18c96cb0ead",
	"smt/ubench/clean/cores=2/observed=true":            "7e269e26efbb8b46",
	"smt/ubench/recover/cores=1/observed=false":         "5bd2504ab28a97b3",
	"smt/ubench/recover/cores=1/observed=true":          "866bb1cb6eba2724",
	"smt/ubench/recover/cores=2/observed=false":         "df875ead5540361a",
	"smt/ubench/recover/cores=2/observed=true":          "4dc13fa78d025d43",
	"smt/ubench/abandon/cores=1/observed=false":         "a182eb368fbfc36a",
	"smt/ubench/abandon/cores=1/observed=true":          "ae31cfbcefa21bb8",
	"smt/ubench/abandon/cores=2/observed=false":         "d541f057f281546d",
	"smt/ubench/abandon/cores=2/observed=true":          "14b751d0a63aa7be",
	"smt/memcached/clean/cores=1/observed=false":        "af1c35439fd9e2fa",
	"smt/memcached/clean/cores=2/observed=false":        "559c7789b9a3d0cd",
	"smt/memcached/recover/cores=1/observed=false":      "6741cb103e888634",
	"smt/memcached/recover/cores=2/observed=false":      "89b0ddc67bb68e7a",
	"swqueue/ubench/clean/cores=1/observed=false":       "75771b605e1deaf5",
	"swqueue/ubench/clean/cores=1/observed=true":        "c3971b22ebc11fa7",
	"swqueue/ubench/clean/cores=2/observed=false":       "97d34c6c70375058",
	"swqueue/ubench/clean/cores=2/observed=true":        "0f5f06b18272ce2b",
	"swqueue/ubench/recover/cores=1/observed=false":     "cb3cd3fffbca80aa",
	"swqueue/ubench/recover/cores=1/observed=true":      "87327ba11d65a9fa",
	"swqueue/ubench/recover/cores=2/observed=false":     "49de593d46999430",
	"swqueue/ubench/recover/cores=2/observed=true":      "7dfe5ac7c594a544",
	"swqueue/ubench/abandon/cores=1/observed=false":     "b3bc215053db5688",
	"swqueue/ubench/abandon/cores=1/observed=true":      "5e75f41f1bee61ee",
	"swqueue/ubench/abandon/cores=2/observed=false":     "58c3990859ec324c",
	"swqueue/ubench/abandon/cores=2/observed=true":      "2f89a662ae0053f1",
	"swqueue/memcached/clean/cores=1/observed=false":    "921eab8a09d28622",
	"swqueue/memcached/clean/cores=2/observed=false":    "a82e699d1ec2aaef",
	"swqueue/memcached/recover/cores=1/observed=false":  "a4a6ed66f2018ef6",
	"swqueue/memcached/recover/cores=2/observed=false":  "c5f5df3092786ecc",
	"kernelq/ubench/clean/cores=1/observed=false":       "d03f6d18e13cec25",
	"kernelq/ubench/clean/cores=1/observed=true":        "f068ecd13af80ad6",
	"kernelq/ubench/clean/cores=2/observed=false":       "27aed052b2cac4a6",
	"kernelq/ubench/clean/cores=2/observed=true":        "19af39bd155c38b4",
	"kernelq/ubench/recover/cores=1/observed=false":     "d4ef037e39734d0f",
	"kernelq/ubench/recover/cores=1/observed=true":      "a6668ae05cede136",
	"kernelq/ubench/recover/cores=2/observed=false":     "7522cfa47131db20",
	"kernelq/ubench/recover/cores=2/observed=true":      "ec8ac8f20477538f",
	"kernelq/ubench/abandon/cores=1/observed=false":     "3b001d54c2b4d34d",
	"kernelq/ubench/abandon/cores=1/observed=true":      "730bd1ff5c76704e",
	"kernelq/ubench/abandon/cores=2/observed=false":     "6433d90ac913241e",
	"kernelq/ubench/abandon/cores=2/observed=true":      "859e5844205c0b81",
	"kernelq/memcached/clean/cores=1/observed=false":    "2148216cf14b95cc",
	"kernelq/memcached/clean/cores=2/observed=false":    "d2e267dd81c30b12",
	"kernelq/memcached/recover/cores=1/observed=false":  "764368f2b9f2ae55",
	"kernelq/memcached/recover/cores=2/observed=false":  "7ddc159596f9bbc0",
}

// goldenPlans are the fault plans of the golden matrix: fault-free, a
// recovering plan with every host-visible fault kind at MaxRetries 1,
// and a harsher one at MaxRetries 0 that abandons accesses.
var goldenPlans = []struct {
	name       string
	plan       fault.Plan
	maxRetries int
}{
	{"clean", fault.Plan{}, 4},
	{"recover", fault.Plan{Seed: 7, DropCompletionProb: 0.03, StragglerProb: 0.03, StragglerFactor: 100, DuplicateProb: 0.05, DoorbellDropProb: 0.05}, 1},
	{"abandon", fault.Plan{Seed: 11, DropCompletionProb: 0.1, DoorbellDropProb: 0.1}, 0},
}

// goldenRun runs one case of the matrix. The microbenchmark reads two
// lines per iteration and, except under kernelq (whose syscall
// interface has no posted writes), also writes two through a
// four-entry store buffer, so stores stall the core; the memcached
// workload adds device-cache hits.
func goldenRun(t *testing.T, mech, wl string, cfg platform.Config) Result {
	t.Helper()
	var w Workload
	switch {
	case wl == "memcached":
		w = workload.NewMemcached(512, 4, 200, 200)
	case mech == "kernelq":
		w = workload.NewMicrobench(300, workload.DefaultWorkCount, 2)
	default:
		w = workload.NewMicrobenchRW(300, workload.DefaultWorkCount, 2, 2)
		cfg.StoreBufferEntries = 4
	}
	var r Result
	var err error
	switch mech {
	case "prefetch":
		r, err = RunPrefetch(cfg, w, 6, true)
	case "smt":
		r, err = RunSMT(cfg, w)
	case "swqueue":
		r, err = RunSWQueue(cfg, w, 6, true)
	case "kernelq":
		r, err = RunKernelQueue(cfg, w, 3, true)
	default:
		t.Fatalf("unknown mechanism %q", mech)
	}
	if err != nil {
		t.Fatalf("%s: %v", mech, err)
	}
	return r
}

// resultDigest hashes everything a Result carries, plus the trace
// bytes when the run was traced.
func resultDigest(r Result, tr *trace.Recorder) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n%+v\n", r.Measurement, r.Diag)
	if r.Series != nil {
		fmt.Fprintf(h, "%+v\n", *r.Series)
	}
	if r.Attrib != nil {
		fmt.Fprintf(h, "%+v\n", *r.Attrib)
	}
	if r.Fleet != nil {
		fmt.Fprintf(h, "%+v\n", *r.Fleet)
	}
	if tr != nil {
		h.Write([]byte(tr.String()))
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestGoldenResults compares every case's digest with the recorded one.
func TestGoldenResults(t *testing.T) {
	var missing []string
	for _, mech := range []string{"prefetch", "smt", "swqueue", "kernelq"} {
		for _, wl := range []string{"ubench", "memcached"} {
			for _, p := range goldenPlans {
				for _, cores := range []int{1, 2} {
					for _, observed := range []bool{false, true} {
						if wl == "memcached" && (p.name == "abandon" || observed) {
							continue
						}
						name := fmt.Sprintf("%s/%s/%s/cores=%d/observed=%v", mech, wl, p.name, cores, observed)
						cfg := platform.Default()
						cfg.Cores = cores
						cfg.Faults = p.plan
						cfg.MaxRetries = p.maxRetries
						if wl == "memcached" {
							cfg.DeviceCacheLines = 256
						}
						var tr *trace.Recorder
						if observed {
							tr = trace.NewRecorder()
							cfg.Trace = tr
							cfg.Attribution = true
							cfg.MetricsWindow = 5 * sim.Microsecond
						}
						r := goldenRun(t, mech, wl, cfg)
						if p.name != "clean" && r.Retries+r.Abandoned == 0 {
							t.Errorf("%s: the fault plan caused no recovery", name)
						}
						got := resultDigest(r, tr)
						want, ok := goldenDigests[name]
						if !ok {
							missing = append(missing, fmt.Sprintf("\t%q: %q,", name, got))
							continue
						}
						if got != want {
							t.Errorf("%s: digest %s, recorded %s (SimEvents %d, Accesses %d, ElapsedSeconds %v)",
								name, got, want, r.Diag.SimEvents, r.Accesses, r.ElapsedSeconds)
						}
					}
				}
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("no recorded digest for %d case(s):\n%s", len(missing), strings.Join(missing, "\n"))
	}
}

// recordingDigests pins the KUREC1 file bytes RecordAccessTrace
// produces for each workload whose lines the device serves from a
// backing: the microbenchmark's zero lines and the applications' views
// of their datasets. The recording stores whatever line the backing
// returned, so a backing that started returning nil, a short line or
// a different zero line would change the file.
var recordingDigests = map[string]string{
	"ubench/prefetch":    "b1e7b5f0f043139b",
	"ubench/swqueue":     "b1e7b5f0f043139b",
	"ubench/kernelq":     "b1e7b5f0f043139b",
	"bloom/prefetch":     "67c79eab60567d65",
	"bloom/swqueue":      "67c79eab60567d65",
	"bloom/kernelq":      "67c79eab60567d65",
	"memcached/prefetch": "d0d9dffac1e20e14",
	"memcached/swqueue":  "d0d9dffac1e20e14",
	"memcached/kernelq":  "d0d9dffac1e20e14",
	"bfs/prefetch":       "81dc6b5981e5d893",
	"bfs/swqueue":        "81dc6b5981e5d893",
	"bfs/kernelq":        "81dc6b5981e5d893",
}

// TestGoldenRecordings compares each workload's recorded file bytes,
// all cores in order, with the recorded digest, and checks that a
// recording read back from its file writes the same bytes again. With
// four threads a core issues the same sequence under every mechanism.
func TestGoldenRecordings(t *testing.T) {
	workloads := []struct {
		name string
		w    Workload
	}{
		{"ubench", workload.NewMicrobench(200, workload.DefaultWorkCount, 1)},
		{"bloom", workload.NewBloom(1<<16, 4, 300, 200, workload.DefaultWorkCount)},
		{"memcached", workload.NewMemcached(128, 4, 200, workload.DefaultWorkCount)},
		{"bfs", workload.NewBFS(workload.NewKronecker(8, 8, 3), []int{1, 2, 3, 4}, 30, workload.DefaultWorkCount)},
	}
	var missing []string
	for _, wl := range workloads {
		for _, mech := range []string{"prefetch", "swqueue", "kernelq"} {
			name := wl.name + "/" + mech
			recs, err := RecordAccessTrace(platform.Default().WithCores(2), wl.w, 4, mech)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			h := sha256.New()
			for coreID := 0; coreID < 2; coreID++ {
				var file, again bytes.Buffer
				if _, err := recs[coreID].WriteTo(&file); err != nil {
					t.Fatalf("%s: core %d: %v", name, coreID, err)
				}
				h.Write(file.Bytes())
				back, err := replay.ReadRecording(bytes.NewReader(file.Bytes()))
				if err == nil {
					_, err = back.WriteTo(&again)
				}
				if err != nil || !bytes.Equal(again.Bytes(), file.Bytes()) {
					t.Errorf("%s: core %d: the file read back does not write the same bytes (%v)", name, coreID, err)
				}
			}
			got := fmt.Sprintf("%x", h.Sum(nil))[:16]
			want, ok := recordingDigests[name]
			if !ok {
				missing = append(missing, fmt.Sprintf("\t%q: %q,", name, got))
				continue
			}
			if got != want {
				t.Errorf("%s: digest %s, recorded %s", name, got, want)
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("no recorded digest for %d case(s):\n%s", len(missing), strings.Join(missing, "\n"))
	}
}
