package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/attrib"
	"repro/internal/report"
)

// cmdMetrics extracts the flight-recorder time series from a run
// report written with `killerusec -metrics -json` (or fetched from
// kurecd). The default output is a per-cell summary; -csv emits every
// window of every cell as one flat CSV for plotting.
//
//	kurec metrics run.json
//	kurec metrics run.json -csv > windows.csv
//	kurec metrics run.json -csv -table fig3 -series prefetch
func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit one CSV row per window across all selected cells")
	table := fs.String("table", "", "restrict to this table id")
	series := fs.String("series", "", "restrict to series whose label contains this substring")
	r, path, err := readReportArg(fs, args, "-metrics")
	if err != nil {
		return err
	}
	// CSV mode never errors on an empty selection: a report without a
	// timeseries section (or with nothing matching the filters) yields
	// just the header, so a pipeline concatenating many reports always
	// sees the same stable column set.
	if r.Timeseries == nil && !*csv {
		return fmt.Errorf("%s has no timeseries section (run killerusec with -metrics)", path)
	}

	cells := selectCells(r, *table, *series, metricsOf)
	if *csv {
		return writeMetricsCSV(os.Stdout, cells)
	}
	if len(cells) == 0 {
		return fmt.Errorf("%s: no cells with metrics match the selection", path)
	}

	fmt.Printf("%s: timeseries v%d, window %gus, %d cells with metrics\n",
		path, r.Timeseries.Version, r.Timeseries.WindowUs, len(cells))
	fmt.Printf("%-8s %-28s %8s %8s %10s %10s %10s %10s\n",
		"table", "series", "x", "windows", "starts", "completes", "p99_ns", "coalesced")
	for _, c := range cells {
		fmt.Printf("%-8s %-28s %8g %8d %10d %10d %10g %10d\n",
			c.table, c.series, c.x, c.v.Windows(),
			c.v.TotalStarts, c.v.TotalCompletes, float64(c.v.TotalP99Ns), c.v.Coalesced)
	}
	return nil
}

// writeMetricsCSV flattens every window of every cell into one CSV
// stream: one row per (cell, window), cells in report order. The
// column set is fixed — it always ends with one `<phase>_ps` column
// per attribution phase (zeros when the run had no -attrib), so the
// header is identical no matter which sections the report carries.
func writeMetricsCSV(w io.Writer, cells []cell[report.TimeSeries]) error {
	header := "table,series,x,window,start_us,window_us,starts,completes,retries,timeouts,abandoned,switches,p50_ns,p99_ns,p999_ns,lfb_mean,lfb_max,chipq_mean,chipq_max,sq_mean,sq_max,cq_mean,cq_max,runnable_mean,runnable_max"
	phases := attrib.Names()
	for _, ph := range phases {
		header += "," + ph + "_ps"
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, c := range cells {
		ts := c.v
		windowUs := float64(ts.WindowUs)
		// Map this cell's phase columns onto the canonical taxonomy; a
		// cell without phase columns emits zeros.
		col := make(map[string]int, len(ts.PhaseNames))
		for j, name := range ts.PhaseNames {
			col[name] = j
		}
		for i := range ts.Starts {
			spanUs := windowUs
			if i == len(ts.Starts)-1 {
				spanUs = float64(ts.LastSpanUs)
			}
			_, err := fmt.Fprintf(w, "%s,%s,%g,%d,%g,%g,%d,%d,%d,%d,%d,%d,%g,%g,%g,%g,%d,%g,%d,%g,%d,%g,%d,%g,%d",
				csvField(c.table), csvField(c.series), c.x, i, float64(i)*windowUs, spanUs,
				ts.Starts[i], ts.Completes[i], ts.Retries[i], ts.Timeouts[i], ts.Abandoned[i], ts.Switches[i],
				float64(ts.P50Ns[i]), float64(ts.P99Ns[i]), float64(ts.P999Ns[i]),
				float64(ts.LFBMean[i]), ts.LFBMax[i],
				float64(ts.ChipMean[i]), ts.ChipMax[i],
				float64(ts.SQMean[i]), ts.SQMax[i],
				float64(ts.CQMean[i]), ts.CQMax[i],
				float64(ts.RunnableMean[i]), ts.RunnableMax[i])
			if err != nil {
				return err
			}
			for _, ph := range phases {
				var ps int64
				if j, ok := col[ph]; ok && i < len(ts.Phases) {
					ps = ts.Phases[i][j]
				}
				if _, err := fmt.Fprintf(w, ",%d", ps); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// csvField quotes a field when it contains CSV metacharacters.
func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
