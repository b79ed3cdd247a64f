package main

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/report"
)

// parseOperand parses a command's flags and returns its one operand,
// which may precede the flags (`kurec blame run.json -csv`) or follow
// them; "" when there is none.
func parseOperand(fs *flag.FlagSet, args []string) (string, error) {
	var operand string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		operand, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	if operand == "" && fs.NArg() > 0 {
		operand = fs.Arg(0)
	}
	return operand, nil
}

// readReportArg parses a report command's flags and reads the run
// report named before or after them. writer is the killerusec flag
// that produces the section the command reads.
func readReportArg(fs *flag.FlagSet, args []string, writer string) (*report.Report, string, error) {
	path, err := parseOperand(fs, args)
	if err != nil {
		return nil, "", err
	}
	if path == "" {
		return nil, "", fmt.Errorf("%s needs a report file (from `killerusec %s -json <file>`)", fs.Name(), writer)
	}
	r, err := report.ReadFile(path)
	return r, path, err
}

// cell is one datapoint of a report table that carries a per-point
// section value: a time series, an attribution or a fleet summary.
type cell[T any] struct {
	table, series string
	x             float64
	v             *T
}

// selectCells gathers, in report order, the points whose section value
// pick finds, from the tables and series matching the filters: table
// is an exact id, series a label substring, and "" matches all.
func selectCells[T any](r *report.Report, table, series string, pick func(*report.Series) []*T) []cell[T] {
	var cells []cell[T]
	for _, t := range r.Tables {
		if table != "" && t.ID != table {
			continue
		}
		for _, s := range t.Series {
			if series != "" && !strings.Contains(s.Label, series) {
				continue
			}
			for i, v := range pick(s) {
				if v != nil {
					cells = append(cells, cell[T]{t.ID, s.Label, float64(s.X[i]), v})
				}
			}
		}
	}
	return cells
}

// The per-point sections the report commands select cells by.
func metricsOf(s *report.Series) []*report.TimeSeries   { return s.Metrics }
func attribOf(s *report.Series) []*report.AttribSummary { return s.Attrib }
func fleetOf(s *report.Series) []*report.FleetSummary   { return s.Fleet }
