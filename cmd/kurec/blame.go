package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/report"
)

// cmdBlame renders the latency-attribution section of a run report
// written with `killerusec -attrib -json`: for every attributed cell,
// where the end-to-end access latency actually went, phase by phase.
//
//	kurec blame run.json                          # waterfall per cell
//	kurec blame run.json -top                     # dominant phase per cell
//	kurec blame run.json -csv > blame.csv         # one row per (cell, phase)
//	kurec blame run.json -table fig7 -series swqueue
//	kurec blame run.json -table fig7 -diff "swqueue 4us,prefetch 4us"
func cmdBlame(args []string) error {
	fs := flag.NewFlagSet("blame", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit one CSV row per (cell, phase) across all selected cells")
	top := fs.Bool("top", false, "one line per cell naming its dominant phase")
	table := fs.String("table", "", "restrict to this table id")
	series := fs.String("series", "", "restrict to series whose label contains this substring")
	diff := fs.String("diff", "", "compare two series phase-by-phase: exact labels as \"a,b\"")
	r, path, err := readReportArg(fs, args, "-attrib")
	if err != nil {
		return err
	}
	if r.Attribution == nil {
		return fmt.Errorf("%s has no attribution section (run killerusec with -attrib)", path)
	}

	if *diff != "" {
		return blameDiff(os.Stdout, r, *table, *diff)
	}

	cells := selectCells(r, *table, *series, attribOf)
	if len(cells) == 0 {
		return fmt.Errorf("%s: no attributed cells match the selection", path)
	}

	switch {
	case *csv:
		return writeBlameCSV(os.Stdout, cells)
	case *top:
		return writeBlameTop(os.Stdout, cells)
	}

	fmt.Printf("%s: attribution v%d, %d phases, %d attributed cells\n",
		path, r.Attribution.Version, len(r.Attribution.Phases), len(cells))
	for _, c := range cells {
		writeWaterfall(os.Stdout, c)
	}
	return nil
}

// writeWaterfall prints one cell as a fraction-scaled bar per phase,
// largest first, omitting phases that never accrued time.
func writeWaterfall(w io.Writer, c cell[report.AttribSummary]) {
	a := c.v
	fmt.Fprintf(w, "\n%s %s x=%g — %d accesses, mean %s, %d mismatches\n",
		c.table, c.series, c.x, a.Accesses, fmtNs(a.MeanNs()), a.Mismatches)
	phases := append([]report.PhaseSum(nil), a.Phases...)
	sort.SliceStable(phases, func(i, j int) bool { return phases[i].SumPs > phases[j].SumPs })
	for _, p := range phases {
		if p.SumPs == 0 {
			continue
		}
		frac := 0.0
		if a.TotalPs > 0 {
			frac = float64(p.SumPs) / float64(a.TotalPs)
		}
		bar := strings.Repeat("#", int(frac*40+0.5))
		meanNs := 0.0
		if a.Accesses > 0 {
			meanNs = float64(p.SumPs) / 1e3 / float64(a.Accesses)
		}
		fmt.Fprintf(w, "  %-16s %5.1f%%  %-40s %9s mean  p99 %s\n",
			p.Phase, frac*100, bar, fmtNs(meanNs), fmtNs(float64(p.P99Ns)))
	}
}

// writeBlameTop prints one line per cell naming the phase that owns
// the largest share of its latency.
func writeBlameTop(w io.Writer, cells []cell[report.AttribSummary]) error {
	fmt.Fprintf(w, "%-8s %-28s %8s %-16s %7s %12s %10s\n",
		"table", "series", "x", "dominant", "share", "mean", "accesses")
	for _, c := range cells {
		ph, frac := c.v.DominantPhase()
		if ph == "" {
			ph = "(idle)"
		}
		if _, err := fmt.Fprintf(w, "%-8s %-28s %8g %-16s %6.1f%% %12s %10d\n",
			c.table, c.series, c.x, ph, frac*100, fmtNs(c.v.MeanNs()), c.v.Accesses); err != nil {
			return err
		}
	}
	return nil
}

// writeBlameCSV flattens the selection into one row per (cell, phase),
// cells in report order, phases in taxonomy order. All phases appear,
// including all-zero ones, so the column set is pivot-stable.
func writeBlameCSV(w io.Writer, cells []cell[report.AttribSummary]) error {
	if _, err := fmt.Fprintln(w, "table,series,x,accesses,total_ps,mismatches,phase,sum_ps,frac,count,p50_ns,p99_ns,max_ns"); err != nil {
		return err
	}
	for _, c := range cells {
		for _, p := range c.v.Phases {
			frac := 0.0
			if c.v.TotalPs > 0 {
				frac = float64(p.SumPs) / float64(c.v.TotalPs)
			}
			_, err := fmt.Fprintf(w, "%s,%s,%g,%d,%d,%d,%s,%d,%g,%d,%g,%g,%g\n",
				csvField(c.table), csvField(c.series), c.x, c.v.Accesses, c.v.TotalPs, c.v.Mismatches,
				p.Phase, p.SumPs, frac, p.Count, float64(p.P50Ns), float64(p.P99Ns), float64(p.MaxNs))
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// blameDiff compares two series of one table phase-by-phase at every x
// where both are attributed: the mechanism-vs-mechanism view ("where
// does swqueue spend the time prefetch doesn't?").
func blameDiff(w io.Writer, r *report.Report, table, spec string) error {
	labelA, labelB, ok := strings.Cut(spec, ",")
	labelA, labelB = strings.TrimSpace(labelA), strings.TrimSpace(labelB)
	if !ok || labelA == "" || labelB == "" {
		return fmt.Errorf("-diff wants two exact series labels: \"a,b\"")
	}
	var tables []*report.Table
	for _, t := range r.Tables {
		if table == "" || t.ID == table {
			tables = append(tables, t)
		}
	}
	shared := 0
	for _, t := range tables {
		sa, sb := t.FindSeries(labelA), t.FindSeries(labelB)
		if sa == nil || sb == nil {
			continue
		}
		for i, aa := range sa.Attrib {
			if aa == nil {
				continue
			}
			x := float64(sa.X[i])
			ab := attribAtX(sb, x)
			if ab == nil {
				continue
			}
			shared++
			fmt.Fprintf(w, "\n%s x=%g: %s vs %s (mean %s vs %s)\n",
				t.ID, x, labelA, labelB, fmtNs(aa.MeanNs()), fmtNs(ab.MeanNs()))
			writePhaseDeltas(w, aa, ab)
		}
	}
	if shared == 0 {
		return fmt.Errorf("series %q and %q share no attributed x (check -table and labels)", labelA, labelB)
	}
	return nil
}

// writePhaseDeltas prints per-access mean deltas for every phase either
// side spent time in, largest absolute delta first.
func writePhaseDeltas(w io.Writer, a, b *report.AttribSummary) {
	type row struct {
		phase        string
		deltaNs      float64
		fracA, fracB float64
	}
	var rows []row
	for _, p := range a.Phases {
		bPs := b.PhasePs(p.Phase)
		if p.SumPs == 0 && bPs == 0 {
			continue
		}
		var meanA, meanB float64
		if a.Accesses > 0 {
			meanA = float64(p.SumPs) / 1e3 / float64(a.Accesses)
		}
		if b.Accesses > 0 {
			meanB = float64(bPs) / 1e3 / float64(b.Accesses)
		}
		var fa, fb float64
		if a.TotalPs > 0 {
			fa = float64(p.SumPs) / float64(a.TotalPs)
		}
		if b.TotalPs > 0 {
			fb = float64(bPs) / float64(b.TotalPs)
		}
		rows = append(rows, row{p.Phase, meanA - meanB, fa, fb})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return math.Abs(rows[i].deltaNs) > math.Abs(rows[j].deltaNs)
	})
	for _, r := range rows {
		delta := fmtNs(r.deltaNs)
		if r.deltaNs > 0 {
			delta = "+" + delta
		}
		fmt.Fprintf(w, "  %-16s %10s  (%5.1f%% vs %5.1f%%)\n",
			r.phase, delta, r.fracA*100, r.fracB*100)
	}
}

// attribAtX finds s's attribution summary at x, nil when absent.
func attribAtX(s *report.Series, x float64) *report.AttribSummary {
	if s == nil {
		return nil
	}
	for i, a := range s.Attrib {
		if a != nil && float64(s.X[i]) == x {
			return a
		}
	}
	return nil
}

// fmtNs renders a nanosecond quantity at a human scale (ns or us).
func fmtNs(ns float64) string {
	if math.IsNaN(ns) {
		return "n/a"
	}
	if math.Abs(ns) >= 1000 {
		return fmt.Sprintf("%.2fus", ns/1000)
	}
	return fmt.Sprintf("%.0fns", ns)
}
