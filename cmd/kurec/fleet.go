package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/report"
)

// cmdFleet renders the cluster section of a run report written with
// `killerusec -fleet -json`: for every fleet cell, the offered and
// completed rates, the merged fleet tail, and the per-instance
// saturation accounting.
//
//	kurec fleet run.json                          # one line per fleet cell
//	kurec fleet run.json -instances               # plus per-instance rows
//	kurec fleet run.json -csv > fleet.csv         # one row per (cell, instance)
//	kurec fleet run.json -table cluster-mechs -series swqueue
func cmdFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit one CSV row per (cell, instance) across all selected cells")
	instances := fs.Bool("instances", false, "print per-instance rows under each fleet cell")
	table := fs.String("table", "", "restrict to this table id")
	series := fs.String("series", "", "restrict to series whose label contains this substring")
	r, path, err := readReportArg(fs, args, "-fleet")
	if err != nil {
		return err
	}
	if r.Cluster == nil {
		return fmt.Errorf("%s has no cluster section (run killerusec with -fleet)", path)
	}

	cells := selectCells(r, *table, *series, fleetOf)
	if len(cells) == 0 {
		return fmt.Errorf("%s: no fleet cells match the selection", path)
	}

	if *csv {
		return writeFleetCSV(os.Stdout, cells)
	}

	fmt.Printf("%s: cluster v%d, policies %s, shapes %s, %d fleet cells\n",
		path, r.Cluster.Version,
		strings.Join(r.Cluster.Policies, "/"), strings.Join(r.Cluster.Shapes, "/"), len(cells))
	return writeFleetCells(os.Stdout, cells, *instances)
}

// writeFleetCells prints one line per fleet cell — and, when asked,
// one indented row per instance beneath it.
func writeFleetCells(w io.Writer, cells []cell[report.FleetSummary], perInstance bool) error {
	fmt.Fprintf(w, "%-16s %-20s %6s %-10s %5s %12s %9s %9s %9s %9s\n",
		"table", "series", "x", "mech", "inst", "completed", "absorb", "p50", "p99", "sat")
	for _, c := range cells {
		f := c.v
		absorb := "n/a"
		if v := float64(f.OfferedPerSec); v > 0 {
			absorb = fmt.Sprintf("%.3f", float64(f.CompletedPerSec)/v)
		}
		sat, windows := 0, 0
		for _, in := range f.Instances {
			sat += in.SaturatedWindows
			windows += in.Windows
		}
		if _, err := fmt.Fprintf(w, "%-16s %-20s %6g %-10s %5d %12d %9s %9s %9s %4d/%-4d\n",
			c.table, c.series, c.x, f.Mech, len(f.Instances), f.Completed,
			absorb, fmtNs(float64(f.P50Ns)), fmtNs(float64(f.P99Ns)), sat, windows); err != nil {
			return err
		}
		if !perInstance {
			continue
		}
		for i, in := range f.Instances {
			if _, err := fmt.Fprintf(w, "  inst %-3d arrived %-7d completed %-7d peak %-5d p99 %-9s sat %d/%d\n",
				i, in.Arrived, in.Completed, in.PeakOutstanding,
				fmtNs(float64(in.P99Ns)), in.SaturatedWindows, in.Windows); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeFleetCSV flattens the selection into one row per (cell,
// instance), cells in report order, so per-instance load imbalance and
// saturation pivot cleanly.
func writeFleetCSV(w io.Writer, cells []cell[report.FleetSummary]) error {
	if _, err := fmt.Fprintln(w, "table,series,x,policy,shape,mech,rho,offered_per_sec,completed_per_sec,fleet_p99_ns,instance,arrived,completed,windows,saturated_windows,peak_outstanding,p50_ns,p99_ns,p999_ns"); err != nil {
		return err
	}
	for _, c := range cells {
		f := c.v
		for i, in := range f.Instances {
			_, err := fmt.Fprintf(w, "%s,%s,%g,%s,%s,%s,%g,%g,%g,%g,%d,%d,%d,%d,%d,%d,%g,%g,%g\n",
				csvField(c.table), csvField(c.series), c.x, csvField(f.Policy), csvField(f.Shape), csvField(f.Mech),
				float64(f.Rho), float64(f.OfferedPerSec), float64(f.CompletedPerSec), float64(f.P99Ns),
				i, in.Arrived, in.Completed, in.Windows, in.SaturatedWindows, in.PeakOutstanding,
				float64(in.P50Ns), float64(in.P99Ns), float64(in.P999Ns))
			if err != nil {
				return err
			}
		}
	}
	return nil
}
