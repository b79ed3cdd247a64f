package experiments

import (
	"strings"
	"testing"
)

// Every registry entry must resolve through PlanFor — by canonical id
// and by every alias — to a plan whose step id matches the entry, and
// carry a non-empty description for the -plans listing.
func TestPlanRegistryResolves(t *testing.T) {
	s := Quick()
	infos := Plans()
	if len(infos) == 0 {
		t.Fatal("empty plan registry")
	}
	seen := map[string]bool{}
	for _, p := range infos {
		if p.Desc == "" {
			t.Errorf("plan %s has no description", p.ID)
		}
		for _, id := range append([]string{p.ID}, p.Aliases...) {
			if seen[id] {
				t.Errorf("id %q registered twice", id)
			}
			seen[id] = true
			plan := PlanFor(s, id)
			if len(plan) == 0 {
				t.Errorf("PlanFor(%q) resolved to nothing", id)
				continue
			}
			for _, step := range plan {
				if step.ID != p.ID || step.Run == nil {
					t.Errorf("PlanFor(%q) produced a malformed step %+v", id, step)
				}
			}
		}
	}
	if PlanFor(s, "no-such-experiment") != nil {
		t.Error("unknown id resolved to a plan")
	}
	// The ids the families hand out must stay resolvable individually.
	for _, want := range []string{"fig2", "cluster", "ext-faults", "ablation-lfb"} {
		if !seen[want] {
			t.Errorf("registry lost id %q", want)
		}
	}
}

// TestFamilyPlanStepIDs pins the step ids of every family plan and of
// the single-id plans the CLI families resolve (-faults runs ext-faults;
// -fig fleet is the cluster plan), in order. The families are the
// catalogue killerusec -all/-ext/-fleet, kurecd's default plan and the
// benchmark sweep run, so a reordering here reorders their reports.
func TestFamilyPlanStepIDs(t *testing.T) {
	s := Quick()
	ids := func(plan []Experiment) string {
		var out []string
		for _, e := range plan {
			out = append(out, e.ID)
		}
		return strings.Join(out, " ")
	}
	for _, c := range []struct {
		name string
		plan []Experiment
		want string
	}{
		{"PaperPlan", s.PaperPlan(), "fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 ablation-lfb ablation-chipq ablation-rule ablation-switch ablation-swqopts"},
		{"ExtensionPlan", s.ExtensionPlan(), "ext-kernelq ext-smt ext-writes ext-membus ext-tail ext-ptrchase ext-devices ext-locality ext-faults"},
		{"FleetPlan", s.FleetPlan(), "cluster"},
		{"PlanFor(ext-faults)", PlanFor(s, "ext-faults"), "ext-faults"},
		{"PlanFor(faults)", PlanFor(s, "faults"), "ext-faults"},
		{"PlanFor(cluster)", PlanFor(s, "cluster"), "cluster"},
		{"PlanFor(fleet)", PlanFor(s, "fleet"), "cluster"},
		{"PlanFor(10b)", PlanFor(s, "10b"), "fig10b"},
	} {
		if got := ids(c.plan); got != c.want {
			t.Errorf("%s step ids = %q, want %q", c.name, got, c.want)
		}
	}
}
