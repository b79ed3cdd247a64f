package cluster

import (
	"fmt"

	"repro/internal/stats"
)

// Routing policies.
const (
	PolicyRoundRobin       = "round-robin"       // static rotation, load-blind
	PolicyLeastOutstanding = "least-outstanding" // fewest in-flight requests wins
	PolicyQueueWeighted    = "queue-weighted"    // seeded draw weighted by 1/(1+backlog)
	PolicyKeyAffinity      = "key-affinity"      // deterministic key hash, cache-friendly
)

// Policies lists every routing policy, in rendering order.
func Policies() []string {
	return []string{PolicyRoundRobin, PolicyLeastOutstanding, PolicyQueueWeighted, PolicyKeyAffinity}
}

// policyLookahead declares, per policy, whether the routing decision is
// a pure function of (seed, arrival index, key) — i.e. reads no live
// instance state. The sharded driver exploits the declaration: a
// lookahead policy's whole decision sequence can be precomputed, so
// engines run through entire arrival batches between barriers, while a
// state-dependent policy must barrier at every arrival so its decision
// sees queue state at exactly the arrival's timestamp.
var policyLookahead = map[string]bool{
	PolicyRoundRobin:       true,
	PolicyKeyAffinity:      true,
	PolicyLeastOutstanding: false,
	PolicyQueueWeighted:    false,
}

// Lookahead reports whether the policy declares routing lookahead: its
// decisions read no live queue state, so a sharded fleet run can
// pre-route whole arrival batches for it.
func Lookahead(policy string) bool { return policyLookahead[policy] }

// router picks a target instance for each arrival. Every policy is
// deterministic: ties break to the lowest instance index and the
// weighted draw uses the run's seeded generator, so the routing
// decision sequence is a pure function of (config, seed).
type router struct {
	policy string
	next   int         // round-robin cursor
	r      *stats.Rand // queue-weighted draws
}

func newRouter(cfg Config) (*router, error) {
	switch cfg.Policy {
	case PolicyRoundRobin, PolicyLeastOutstanding, PolicyQueueWeighted, PolicyKeyAffinity:
	default:
		return nil, fmt.Errorf("cluster: unknown policy %q", cfg.Policy)
	}
	return &router{
		policy: cfg.Policy,
		r:      stats.NewRand(cfg.Seed ^ 0x726F757465725F73), // "router_s"
	}, nil
}

// preroute returns the routing decision for the next arrival using no
// live instance state. Only legal for policies that declare Lookahead;
// the round-robin cursor advances here exactly as pick would advance
// it, so a prerouted decision sequence is bit-identical to picking at
// each arrival.
func (rt *router) preroute(n int, key uint64) int {
	switch rt.policy {
	case PolicyRoundRobin:
		i := rt.next
		rt.next = (rt.next + 1) % n
		return i
	case PolicyKeyAffinity:
		return int(mix(key) % uint64(n))
	}
	panic("cluster: preroute on state-dependent policy " + rt.policy)
}

func (rt *router) pick(insts []*instance, key uint64) int {
	switch rt.policy {
	case PolicyRoundRobin, PolicyKeyAffinity:
		return rt.preroute(len(insts), key)

	case PolicyLeastOutstanding:
		best, bestOut := 0, insts[0].srv.Outstanding()
		for i := 1; i < len(insts); i++ {
			if out := insts[i].srv.Outstanding(); out < bestOut {
				best, bestOut = i, out
			}
		}
		return best

	case PolicyQueueWeighted:
		// Draw proportionally to 1/(1+backlog): an idle instance is
		// (1+b) times likelier than one with b queued requests, but
		// loaded instances still receive traffic — the soft variant of
		// least-outstanding. Weights are recomputed, not stored, so an
		// arrival allocates nothing.
		var total float64
		for _, in := range insts {
			total += 1 / float64(1+in.srv.QueueDepth())
		}
		x := rt.r.Float64() * total
		for i, in := range insts {
			x -= 1 / float64(1+in.srv.QueueDepth())
			if x < 0 {
				return i
			}
		}
		return len(insts) - 1 // float underflow: last instance
	}
	panic("cluster: unreachable policy " + rt.policy)
}

// mix is one splitmix64 finalization round: keys are routed by their
// mixed hash so consecutive keys spread while equal keys always land
// on the same instance.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
