package attrib

import (
	"testing"

	"repro/internal/sim"
)

func TestTelescopingExactness(t *testing.T) {
	pr := NewProbe("test")
	a := pr.Open(100)
	a.To(PhaseIssue, 150)
	a.To(PhaseQueueWait, 400)
	a.To(PhaseTransit, 900)
	a.To(PhaseDevice, 1900)
	a.Close(PhaseComplWait, 2500)

	// One access: the probe's sums are its ledger.
	if got := pr.PhasePs(PhaseIssue); got != 50 {
		t.Errorf("issue = %d, want 50", got)
	}
	if got := pr.PhasePs(PhaseQueueWait); got != 250 {
		t.Errorf("queue_wait = %d, want 250", got)
	}
	if got := pr.PhasePs(PhaseComplWait); got != 600 {
		t.Errorf("completion_wait = %d, want 600", got)
	}
	var sum int64
	for ph := Phase(0); ph < NumPhases; ph++ {
		sum += pr.PhasePs(ph)
	}
	if sum != 2400 {
		t.Errorf("phase sum %d != end-to-end 2400", sum)
	}
	if pr.TotalPs() != 2400 || pr.Accesses() != 1 || pr.Mismatches() != 0 {
		t.Errorf("probe totals = (%d, %d, %d), want (2400, 1, 0)",
			pr.TotalPs(), pr.Accesses(), pr.Mismatches())
	}
}

// TestOutOfOrderMarksClamp pins the property the mechanisms rely on:
// marks with stale or future-overlapping timestamps assign zero-length
// intervals instead of corrupting the ledger, so conditional phase
// boundaries can be marked unconditionally.
func TestOutOfOrderMarksClamp(t *testing.T) {
	pr := NewProbe("test")
	a := pr.Open(1000)
	a.To(PhaseDevice, 5000)  // future-dated device mark
	a.To(PhaseTransit, 3000) // stale: clamps to nothing
	a.To(PhaseTransit, 6000)
	a.To(PhaseComplWait, 0) // zero stamp (no switch happened): no-op
	a.To(PhaseSwitch, 0)
	a.Close(PhaseComplWait, 6400)

	if got := pr.PhasePs(PhaseDevice); got != 4000 {
		t.Errorf("device = %d, want 4000", got)
	}
	if got := pr.PhasePs(PhaseTransit); got != 1000 {
		t.Errorf("transit = %d, want 1000", got)
	}
	if got := pr.PhasePs(PhaseSwitch); got != 0 {
		t.Errorf("switch = %d, want 0", got)
	}
	if pr.TotalPs() != 5400 {
		t.Errorf("total %d != 5400", pr.TotalPs())
	}
	if pr.Mismatches() != 0 {
		t.Errorf("clamped marks counted as mismatches: %d", pr.Mismatches())
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	pr := NewProbe("test")
	a := pr.Open(0)
	a.Close(PhaseDevice, 100)
	// A straggling response marking or re-closing after delivery must
	// not double-account.
	a.To(PhaseTransit, 500)
	a.Close(PhaseComplWait, 900)
	if !a.Closed() {
		t.Fatal("not closed")
	}
	if pr.Accesses() != 1 || pr.TotalPs() != 100 {
		t.Errorf("probe = (%d accesses, %d ps), want (1, 100)", pr.Accesses(), pr.TotalPs())
	}
	if got := pr.PhasePs(PhaseTransit); got != 0 {
		t.Errorf("post-close mark leaked %d ps into transit", got)
	}
}

func TestCloseClampsEarlyEndAsMismatch(t *testing.T) {
	pr := NewProbe("test")
	a := pr.Open(0)
	a.To(PhaseDevice, 1000)
	a.Close(PhaseComplWait, 400) // end precedes the last mark
	if pr.Mismatches() != 1 {
		t.Errorf("mismatches = %d, want 1", pr.Mismatches())
	}
	// The ledger still telescopes: total equals the clamped window.
	if pr.TotalPs() != 1000 || pr.PhasePs(PhaseDevice) != 1000 {
		t.Errorf("clamped close broke telescoping: total %d, device %d",
			pr.TotalPs(), pr.PhasePs(PhaseDevice))
	}
}

// TestStaleHandleAfterReuse: Close returns the ledger for reuse, and a
// handle kept past Close — a straggling response's — changes nothing,
// neither the probe nor the access now using its ledger.
func TestStaleHandleAfterReuse(t *testing.T) {
	pr := NewProbe("test")
	stale := pr.Open(0)
	stale.To(PhaseIssue, 10)
	stale.Close(PhaseDevice, 100)
	fresh := pr.Open(1000)
	if fresh.l != stale.l {
		t.Fatal("Open did not reuse the closed ledger")
	}
	fresh.To(PhaseIssue, 1020)
	stale.To(PhaseTransit, 1500) // straggler marks the reused ledger
	stale.Close(PhaseRetry, 1600)
	if !stale.Closed() || fresh.Closed() {
		t.Fatalf("closed: stale=%v fresh=%v, want true/false", stale.Closed(), fresh.Closed())
	}
	if stale.PhasePs(PhaseIssue) != 0 || stale.ElapsedPs() != 0 {
		t.Error("a stale handle reads the ledger's new access")
	}
	if fresh.PhasePs(PhaseIssue) != 20 || fresh.PhasePs(PhaseTransit) != 0 || fresh.ElapsedPs() != 20 {
		t.Errorf("fresh ledger: issue=%d transit=%d elapsed=%d, want 20/0/20",
			fresh.PhasePs(PhaseIssue), fresh.PhasePs(PhaseTransit), fresh.ElapsedPs())
	}
	if pr.Accesses() != 1 || pr.TotalPs() != 100 || pr.PhasePs(PhaseRetry) != 0 {
		t.Errorf("probe = (%d accesses, %d ps, %d retry), want (1, 100, 0)",
			pr.Accesses(), pr.TotalPs(), pr.PhasePs(PhaseRetry))
	}
	fresh.Close(PhaseComplWait, 1200)
	if pr.Accesses() != 2 || pr.TotalPs() != 300 || pr.PhasePs(PhaseIssue) != 30 ||
		pr.PhasePs(PhaseComplWait) != 180 || pr.PhasePs(PhaseTransit) != 0 {
		t.Errorf("probe after fresh close = (%d accesses, %d ps, issue %d, completion %d, transit %d), want (2, 300, 30, 180, 0)",
			pr.Accesses(), pr.TotalPs(), pr.PhasePs(PhaseIssue), pr.PhasePs(PhaseComplWait), pr.PhasePs(PhaseTransit))
	}
}

// TestOpenCloseAllocs: once the probe's histograms exist and a ledger
// is on its free list, opening and closing accesses allocates nothing.
func TestOpenCloseAllocs(t *testing.T) {
	pr := NewProbe("test")
	pr.SetOnClose(func(sim.Time, *[NumPhases]int64) {})
	at := sim.Time(0)
	access := func() {
		a := pr.Open(at)
		a.To(PhaseIssue, at+10)
		a.To(PhaseQueueWait, at+200)
		a.To(PhaseTransit, at+700)
		a.To(PhaseDevice, at+1700)
		a.Close(PhaseComplWait, at+1750+at%64)
		at += 2000
	}
	if n := testing.AllocsPerRun(1000, access); n != 0 {
		t.Errorf("steady-state Open/Close allocates %v objects", n)
	}
	if pr.Mismatches() != 0 || pr.Accesses() != 1001 {
		t.Errorf("probe = (%d accesses, %d mismatches), want (1001, 0)", pr.Accesses(), pr.Mismatches())
	}
}

// TestNilProbeAndAccessAreNoOps pins the disabled-attribution contract:
// everything is callable on nils and records nothing.
func TestNilProbeAndAccessAreNoOps(t *testing.T) {
	var pr *Probe
	a := pr.Open(100)
	if a != (Access{}) {
		t.Fatal("nil probe handed out a non-zero access")
	}
	a.To(PhaseIssue, 200)
	a.Close(PhaseDevice, 300)
	if a.Closed() || a.PhasePs(PhaseIssue) != 0 || a.ElapsedPs() != 0 {
		t.Error("nil access recorded something")
	}
	if pr.Accesses() != 0 || pr.TotalPs() != 0 || pr.Mismatches() != 0 {
		t.Error("nil probe accumulated something")
	}
	if pr.Summary() != nil {
		t.Error("nil probe produced a summary")
	}
	pr.SetOnClose(nil)
}

func TestSummaryValidatesAndOrdersPhases(t *testing.T) {
	pr := NewProbe("sum")
	for i := 0; i < 10; i++ {
		a := pr.Open(sim.Time(i) * 1000)
		a.To(PhaseIssue, sim.Time(i)*1000+100)
		a.To(PhaseDevice, sim.Time(i)*1000+700)
		a.Close(PhaseComplWait, sim.Time(i)*1000+800)
	}
	s := pr.Summary()
	if err := s.Validate(); err != nil {
		t.Fatalf("summary invalid: %v", err)
	}
	if s.Label != "sum" || s.Accesses != 10 || s.TotalPs != 8000 {
		t.Errorf("summary header = (%q, %d, %d)", s.Label, s.Accesses, s.TotalPs)
	}
	if len(s.Phases) != int(NumPhases) {
		t.Fatalf("summary has %d phases, want %d", len(s.Phases), NumPhases)
	}
	for i, p := range s.Phases {
		if p.Phase != Phase(i).String() {
			t.Errorf("phase %d = %q, want %q", i, p.Phase, Phase(i).String())
		}
	}
	// All-zero phases appear with zero sums so columns stay stable.
	if s.PhasePs("retry_backoff") != 0 || s.PhasePs("issue") != 1000 {
		t.Errorf("phase sums wrong: retry=%d issue=%d",
			s.PhasePs("retry_backoff"), s.PhasePs("issue"))
	}
	if ph, frac := s.DominantPhase(); ph != "device" || frac <= 0.5 {
		t.Errorf("dominant = (%q, %g), want device with majority share", ph, frac)
	}
	if s.Phases[PhaseDevice].P50Ns <= 0 || s.Phases[PhaseDevice].MaxNs <= 0 {
		t.Error("device percentiles missing")
	}
}

func TestOnCloseObserverSeesEveryClose(t *testing.T) {
	pr := NewProbe("obs")
	var ends []sim.Time
	var devPs int64
	pr.SetOnClose(func(end sim.Time, ph *[NumPhases]int64) {
		ends = append(ends, end)
		devPs += ph[PhaseDevice]
	})
	for i := 0; i < 3; i++ {
		a := pr.Open(sim.Time(i) * 100)
		a.To(PhaseDevice, sim.Time(i)*100+40)
		a.Close(PhaseComplWait, sim.Time(i)*100+50)
	}
	if len(ends) != 3 || ends[2] != 250 {
		t.Errorf("observer saw ends %v", ends)
	}
	if devPs != 120 {
		t.Errorf("observer device sum %d, want 120", devPs)
	}
}

func TestNamesAndString(t *testing.T) {
	names := Names()
	if len(names) != int(NumPhases) {
		t.Fatalf("Names() has %d entries, want %d", len(names), NumPhases)
	}
	seen := map[string]bool{}
	for i, n := range names {
		if n == "" || seen[n] {
			t.Errorf("phase %d name %q empty or duplicate", i, n)
		}
		seen[n] = true
	}
	if Phase(-1).String() != "invalid" || NumPhases.String() != "invalid" {
		t.Error("out-of-range phases must stringify as invalid")
	}
	// Names returns a fresh slice; mutating it must not poison the
	// canonical order.
	names[0] = "mutated"
	if Names()[0] != "issue" {
		t.Error("Names() shares its backing array with callers")
	}
}
