package core

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/trace"
)

// TestObserversIndependent pins that the trace and attribution layers
// observe each access without seeing each other: a run with both on
// exports the same trace bytes as a trace-only run and the same
// attribution summary as an attribution-only run, for every mechanism,
// fault-free and under a drop+straggler+duplicate plan. Both layers
// ride on one per-access handle from core to device, so a stamp that
// leaked from one into the other would show here.
func TestObserversIndependent(t *testing.T) {
	plans := map[string]fault.Plan{
		"clean":  {},
		"faulty": {Seed: 7, DropCompletionProb: 0.03, StragglerProb: 0.03, StragglerFactor: 100, DuplicateProb: 0.05},
	}
	for name, plan := range plans {
		for _, mech := range traceMechs {
			run := func(tr, attr bool) (string, Result) {
				cfg := attribCfg()
				cfg.Attribution = attr
				cfg.Faults = plan
				cfg.MaxRetries = 1 // so some accesses are abandoned
				if !tr {
					return "", runMech(t, mech, cfg, 400)
				}
				cfg.Trace = trace.NewRecorder()
				r := runMech(t, mech, cfg, 400)
				return cfg.Trace.String(), r
			}
			traceOnly, _ := run(true, false)
			_, attrOnly := run(false, true)
			both, bothRes := run(true, true)
			if plan.Enabled() && bothRes.Retries == 0 {
				t.Fatalf("%s/%s: the fault plan caused no retry", name, mech)
			}
			if both != traceOnly {
				t.Errorf("%s/%s: trace bytes differ with attribution on", name, mech)
			}
			if attrOnly.Attrib == nil {
				t.Fatalf("%s/%s: attribution-only run has no summary", name, mech)
			}
			if !reflect.DeepEqual(bothRes.Attrib, attrOnly.Attrib) {
				t.Errorf("%s/%s: attribution summary differs with tracing on", name, mech)
			}
		}
	}
}
