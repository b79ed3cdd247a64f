package stats

import (
	"math"
	"testing"
)

func validFleet() *FleetSummary {
	return &FleetSummary{
		Policy: "round-robin", Shape: "poisson", Mech: "prefetch",
		Arrived: 10, Completed: 9,
		Instances: []FleetInstance{
			{Arrived: 6, Completed: 6, Windows: 4, SaturatedWindows: 1},
			{Arrived: 4, Completed: 3, Windows: 4},
		},
	}
}

func TestFleetSummaryValidate(t *testing.T) {
	if err := validFleet().Validate(); err != nil {
		t.Fatalf("valid summary rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*FleetSummary)
	}{
		{"empty policy", func(f *FleetSummary) { f.Policy = "" }},
		{"empty shape", func(f *FleetSummary) { f.Shape = "" }},
		{"empty mech", func(f *FleetSummary) { f.Mech = "" }},
		{"no instances", func(f *FleetSummary) { f.Instances = nil }},
		{"instance completes more than it was sent", func(f *FleetSummary) { f.Instances[1].Completed = 5; f.Completed = 11 }},
		{"saturated windows exceed windows", func(f *FleetSummary) { f.Instances[0].SaturatedWindows = 5 }},
		{"arrivals do not sum", func(f *FleetSummary) { f.Arrived = 11 }},
		{"completions do not sum", func(f *FleetSummary) { f.Completed = 8 }},
	}
	for _, tc := range cases {
		f := validFleet()
		tc.mut(f)
		if err := f.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken summary", tc.name)
		}
	}
}

func TestAttribSummaryMeanNs(t *testing.T) {
	if got := (*AttribSummary)(nil).MeanNs(); !math.IsNaN(got) {
		t.Errorf("nil summary MeanNs = %v, want NaN", got)
	}
	if got := (&AttribSummary{}).MeanNs(); !math.IsNaN(got) {
		t.Errorf("zero-access summary MeanNs = %v, want NaN", got)
	}
	a := &AttribSummary{Accesses: 4, TotalPs: 14000}
	if got := a.MeanNs(); got != 3.5 {
		t.Errorf("MeanNs = %v, want 3.5", got)
	}
}
