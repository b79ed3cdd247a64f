package cluster

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
)

// goldenFleetDigests pins the full FleetSummary — Events included — of
// each case of TestGoldenFleet's matrix. A rewrite of the server
// workers or the fleet driver must reproduce these exactly: same
// instants, same order, same event count.
var goldenFleetDigests = map[string]string{
	"prefetch/round-robin/skew=false/work=0":         "070d08431e203692",
	"prefetch/round-robin/skew=false/work=100":       "c10526c1a39c3008",
	"prefetch/round-robin/skew=true/work=0":          "33c2a8e9615d5f91",
	"prefetch/round-robin/skew=true/work=100":        "4871b4e623a094fa",
	"prefetch/least-outstanding/skew=false/work=0":   "dd21f5222428e3f3",
	"prefetch/least-outstanding/skew=false/work=100": "5a775e1398d9e8a6",
	"prefetch/least-outstanding/skew=true/work=0":    "68ac523b9377ffda",
	"prefetch/least-outstanding/skew=true/work=100":  "00ffcd1ad81a9487",
	"swqueue/round-robin/skew=false/work=0":          "6b715da72179c92a",
	"swqueue/round-robin/skew=false/work=100":        "22906d82144aabf1",
	"swqueue/round-robin/skew=true/work=0":           "e9bb140f67037176",
	"swqueue/round-robin/skew=true/work=100":         "79f2fcb91d0d0482",
	"swqueue/least-outstanding/skew=false/work=0":    "86c4a0a99993e57e",
	"swqueue/least-outstanding/skew=false/work=100":  "cd7369b656909c0b",
	"swqueue/least-outstanding/skew=true/work=0":     "4ac9b794bb7a2d5b",
	"swqueue/least-outstanding/skew=true/work=100":   "84e21b6ac16324f8",
	"ondemand/round-robin/skew=false/work=0":         "90b3e8b2e84e02ff",
	"ondemand/round-robin/skew=false/work=100":       "969343122e57c53a",
	"ondemand/round-robin/skew=true/work=0":          "60545e248dc5b7e6",
	"ondemand/round-robin/skew=true/work=100":        "de77ca02acfd3946",
	"ondemand/least-outstanding/skew=false/work=0":   "2888745b5b8a0cfd",
	"ondemand/least-outstanding/skew=false/work=100": "f60eb80f4226f5de",
	"ondemand/least-outstanding/skew=true/work=0":    "5db768fb108fc3fc",
	"ondemand/least-outstanding/skew=true/work=100":  "ba3543af8358d7ba",
}

// goldenFleetCfg builds one case of the matrix. Every mechanism runs
// under both a lookahead policy (round-robin) and a state-dependent
// one (least-outstanding), with and without value skew and post-fetch
// work. The offered rate and the shard count cross the mechanism
// dimensions so that each mechanism meets both paths: skewed cases run
// at 2 shards, where round-robin takes the prerouted arrival phase and
// least-outstanding the lockstep one with serial window advances;
// work-free cases run past capacity, so a backlog is left to drain.
func goldenFleetCfg(mech, policy string, skew bool, work int) Config {
	cfg := quickCfg()
	cfg.Mech = mech
	cfg.Policy = policy
	cfg.ValueSkew = skew
	cfg.WorkInstr = work
	cfg.Requests = 240
	cfg.Window = 5 * sim.Microsecond
	if skew {
		cfg.Shards = 2
	}
	if work == 0 {
		cfg.RatePerSec = 16e6
	}
	return cfg
}

// fleetDigest hashes everything a FleetSummary carries.
func fleetDigest(sum *stats.FleetSummary) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", *sum))))[:16]
}

// TestGoldenFleet compares every case's digest with the recorded one.
func TestGoldenFleet(t *testing.T) {
	var missing []string
	drained := map[string]bool{}
	for _, mech := range []string{"prefetch", "swqueue", "ondemand"} {
		for _, policy := range []string{PolicyRoundRobin, PolicyLeastOutstanding} {
			for _, skew := range []bool{false, true} {
				for _, work := range []int{0, 100} {
					name := fmt.Sprintf("%s/%s/skew=%v/work=%d", mech, policy, skew, work)
					cfg := goldenFleetCfg(mech, policy, skew, work)
					sum, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					full := cfg.withDefaults()
					arrivals := generateArrivals(full)
					if sum.Instances[0].Windows > int(arrivals[len(arrivals)-1].at/full.Window) {
						drained[fmt.Sprintf("%s/shards=%d", mech, cfg.Shards)] = true
					}
					got := fleetDigest(sum)
					want, ok := goldenFleetDigests[name]
					if !ok {
						missing = append(missing, fmt.Sprintf("\t%q: %q,", name, got))
						continue
					}
					if got != want {
						t.Errorf("%s: digest %s, recorded %s (Events %d, Completed %d)",
							name, got, want, sum.Events, sum.Completed)
					}
				}
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("no recorded digest for %d case(s):\n%s", len(missing), strings.Join(missing, "\n"))
	}
	// The matrix must keep reaching the drain phase on both arrival
	// paths for every mechanism, or the digests stop pinning it.
	for _, mech := range []string{"prefetch", "swqueue", "ondemand"} {
		for _, shards := range []int{0, 2} {
			if key := fmt.Sprintf("%s/shards=%d", mech, shards); !drained[key] {
				t.Errorf("%s: no case left a backlog to drain", key)
			}
		}
	}
}

// TestStuckWorkersAreNamed forces a lost wakeup in a fleet cell: the
// device drops every response and the server arms no recovery, so
// every worker that takes a request parks on its line for good. Run
// must fail naming each stuck worker of the first instance — the ten
// that the idle stack handed its ten requests to — for every
// mechanism.
func TestStuckWorkersAreNamed(t *testing.T) {
	want := "srvworker6, srvworker7, srvworker8, srvworker9, srvworker10, srvworker11, srvworker12, srvworker13, srvworker14, srvworker15"
	for _, mech := range []string{"prefetch", "swqueue", "ondemand"} {
		cfg := quickCfg()
		cfg.Mech = mech
		cfg.Instances = 2
		cfg.Requests = 20
		cfg.Base.Faults = fault.Plan{Seed: 1, DropCompletionProb: 1}
		sum, err := Run(cfg)
		if err == nil {
			t.Fatalf("%s: Run returned %+v and no error with every response dropped", mech, sum)
		}
		_, names, ok := strings.Cut(err.Error(), "still blocked: ")
		if !ok || names != want {
			t.Errorf("%s: error %q does not name exactly the stuck workers %s", mech, err, want)
		}
	}
}
