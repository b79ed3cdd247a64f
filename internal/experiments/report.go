package experiments

import (
	"repro/internal/attrib"
	"repro/internal/cluster"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Report packages a sweep's tables as a machine-readable run report:
// the JSON artifact `killerusec -json` writes and `kurec check`
// validates, claim-checks, and diffs. The report stamps the full
// parameterization (suite fields plus the constants the experiment
// code bakes in), the platform's Table I constants, and the build
// environment, so every artifact is self-describing.
func (s Suite) Report(tables []*stats.Table) *report.Report {
	latUs := make([]float64, len(latencies))
	for i, l := range latencies {
		latUs[i] = l.Microseconds()
	}
	var ts *report.TimeseriesMeta
	if s.Base.MetricsWindow > 0 {
		ts = &report.TimeseriesMeta{
			Version:    report.TimeseriesVersion,
			WindowUs:   s.Base.MetricsWindow.Microseconds(),
			MaxWindows: telemetry.EffectiveMaxWindows(s.Base.MetricsMaxWindows),
		}
	}
	var at *report.AttributionMeta
	if s.Base.Attribution {
		at = &report.AttributionMeta{
			Version: report.AttributionVersion,
			Phases:  attrib.Names(),
		}
	}
	// The cluster block is stamped iff some table carries fleet
	// summaries, so fleet-free sweeps stay byte-identical to the
	// pre-cluster schema.
	var cl *report.ClusterMeta
	for _, t := range tables {
		for _, sr := range t.Series {
			if len(sr.Fleet) > 0 {
				cl = &report.ClusterMeta{
					Version:  report.ClusterVersion,
					Policies: cluster.Policies(),
					Shapes:   []string{cluster.ShapePoisson, cluster.ShapeBursty, cluster.ShapeSaturate},
				}
			}
		}
	}
	return &report.Report{
		Schema:   report.SchemaName,
		Version:  report.SchemaVersion,
		Tool:     "killerusec",
		Build:    report.CurrentBuild(),
		Platform: report.PlatformFrom(s.Base),
		Sweep: report.Sweep{
			Quick:         s.Quick,
			Iterations:    s.Iterations,
			AppLookups:    s.AppLookups,
			Threads:       append([]int(nil), s.Threads...),
			UseReplay:     s.UseReplay,
			LatenciesUs:   latUs,
			WorkCounts:    append([]int(nil), fig2WorkCounts...),
			MLPLevels:     append([]int(nil), mlpLevels...),
			KroneckerSeed: KroneckerSeed,
		},
		Timeseries:  ts,
		Attribution: at,
		Cluster:     cl,
		Tables:      tables,
	}
}
