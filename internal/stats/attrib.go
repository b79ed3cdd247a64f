package stats

import (
	"fmt"
	"math"
)

// AttribSummary is the latency-attribution output for one measured
// run: exact per-phase picosecond totals plus per-phase percentile
// summaries of the per-access phase times. Like TimeSeries it is a
// pure value type (plain exported fields, gob- and JSON-friendly) so
// it rides inside core.Result through the result cache; the ledger
// machinery that produces it lives in internal/attrib (stats cannot
// import attrib — attrib uses stats.Histogram). Run reports serialize
// it as it is: sums stay in exact integer picoseconds, so report
// consumers can rebuild the waterfall without rounding drift.
//
// The invariant the attribution layer guarantees — per access, phase
// times sum exactly to the end-to-end window — survives aggregation:
// the SumPs fields total exactly TotalPs (Validate checks it), and
// Mismatches is zero on a correctly instrumented run.
type AttribSummary struct {
	Label string `json:"label"`

	// Phases lists every phase of the taxonomy in canonical order,
	// including all-zero ones, so downstream columns are stable.
	Phases []PhaseSum `json:"phases"`

	Accesses   uint64 `json:"accesses"`   // accesses closed into this summary
	TotalPs    int64  `json:"total_ps"`   // exact sum of per-access end-to-end windows
	Mismatches uint64 `json:"mismatches"` // ledger closes that needed end-time clamping
}

// PhaseSum is one phase's aggregate across a run.
type PhaseSum struct {
	Phase string `json:"phase"`  // stable slug, e.g. "queue_wait"
	SumPs int64  `json:"sum_ps"` // exact picosecond total across all accesses
	Count uint64 `json:"count"`  // accesses that spent >0 time in this phase

	// Percentiles of the per-access time spent in this phase, in
	// nanoseconds, over the Count accesses that hit it (zero when
	// Count is zero). From the bounded log-bucketed histogram, so
	// within ~0.4% of exact.
	P50Ns Float `json:"p50_ns"`
	P99Ns Float `json:"p99_ns"`
	MaxNs Float `json:"max_ns"`
}

// PhasePs returns the picosecond total for the named phase (0 if the
// summary is nil or the phase is absent).
func (a *AttribSummary) PhasePs(phase string) int64 {
	if a == nil {
		return 0
	}
	for _, p := range a.Phases {
		if p.Phase == phase {
			return p.SumPs
		}
	}
	return 0
}

// DominantPhase returns the phase with the largest exact total and
// that total's share of TotalPs; ties break toward the earlier phase
// in taxonomy order. Empty string for a nil or empty summary.
func (a *AttribSummary) DominantPhase() (string, float64) {
	if a == nil || a.TotalPs <= 0 {
		return "", 0
	}
	best := -1
	for i, p := range a.Phases {
		if best < 0 || p.SumPs > a.Phases[best].SumPs {
			best = i
		}
	}
	if best < 0 {
		return "", 0
	}
	return a.Phases[best].Phase, float64(a.Phases[best].SumPs) / float64(a.TotalPs)
}

// MeanNs returns the mean end-to-end access window in nanoseconds
// (NaN when the summary is nil or no accesses closed into it).
func (a *AttribSummary) MeanNs() float64 {
	if a == nil || a.Accesses == 0 {
		return math.NaN()
	}
	return float64(a.TotalPs) / 1e3 / float64(a.Accesses)
}

// Validate checks the structural invariants: no negative sums, no
// duplicate phases, per-phase counts bounded by the access count, and
// the hard exactness invariant that phase sums total TotalPs.
func (a *AttribSummary) Validate() error {
	if a == nil {
		return nil
	}
	if a.TotalPs < 0 {
		return fmt.Errorf("attrib: negative total %d ps", a.TotalPs)
	}
	seen := map[string]bool{}
	var sum int64
	for _, p := range a.Phases {
		if p.Phase == "" {
			return fmt.Errorf("attrib: unnamed phase")
		}
		if seen[p.Phase] {
			return fmt.Errorf("attrib: duplicate phase %q", p.Phase)
		}
		seen[p.Phase] = true
		if p.SumPs < 0 {
			return fmt.Errorf("attrib: phase %q has negative sum %d ps", p.Phase, p.SumPs)
		}
		if p.Count > a.Accesses {
			return fmt.Errorf("attrib: phase %q count %d exceeds %d accesses", p.Phase, p.Count, a.Accesses)
		}
		sum += p.SumPs
	}
	if sum != a.TotalPs {
		return fmt.Errorf("attrib: phase sums %d ps != total %d ps", sum, a.TotalPs)
	}
	return nil
}
