package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/serve"
)

// ndjson serializes stream records the way kurecd frames them.
func ndjson(t *testing.T, recs ...serve.StreamWindow) string {
	t.Helper()
	var b strings.Builder
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func win(seq uint64, completes uint64) serve.StreamWindow {
	return serve.StreamWindow{
		Type: "window", Seq: seq, Run: "fig3 prefetch", Index: int(seq),
		StartUs: float64(seq) * 10, SpanUs: 10,
		Starts: completes + 1, Completes: completes,
		P50Ns: 900, P99Ns: float64(1000 + seq),
		LFBMean: 1.5, LFBMax: 3,
	}
}

func TestRunTopPlain(t *testing.T) {
	stream := ndjson(t,
		win(0, 5), win(1, 6), win(2, 7),
		serve.StreamWindow{Type: "done", Seq: 3, State: serve.StateDone},
	)
	var out strings.Builder
	if err := runTop(&out, strings.NewReader(stream), true, 0, 60); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 3 windows + done summary:\n%s", len(lines), out.String())
	}
	first := lines[0]
	for _, want := range []string{"window seq=0", `run="fig3 prefetch"`, "t=0us", "span=10us",
		"starts=6", "completes=5", "p50=900ns", "p99=1000ns", "lfb=1.50"} {
		if !strings.Contains(first, want) {
			t.Errorf("plain line missing %q: %s", want, first)
		}
	}
	if got := lines[3]; got != "done state=done windows=3 gaps=0" {
		t.Errorf("done summary = %q", got)
	}
}

func TestRunTopCountsGaps(t *testing.T) {
	// seq jumps 1 -> 5: three records were evicted from the server's
	// bounded buffer before this subscriber read them.
	stream := ndjson(t,
		win(0, 1), win(1, 1), win(5, 1),
		serve.StreamWindow{Type: "done", Seq: 6, State: serve.StateDone},
	)
	var out strings.Builder
	if err := runTop(&out, strings.NewReader(stream), true, 0, 60); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "done state=done windows=3 gaps=3") {
		t.Errorf("gap accounting wrong:\n%s", out.String())
	}
}

func TestRunTopStopsAfterN(t *testing.T) {
	stream := ndjson(t, win(0, 1), win(1, 1), win(2, 1), win(3, 1))
	var out strings.Builder
	if err := runTop(&out, strings.NewReader(stream), true, 2, 60); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "window seq="); got != 2 {
		t.Errorf("-n 2 emitted %d windows:\n%s", got, out.String())
	}
}

func TestRunTopScreenMode(t *testing.T) {
	stream := ndjson(t,
		win(0, 5), win(1, 9),
		serve.StreamWindow{Type: "done", Seq: 2, State: serve.StateCancelled},
	)
	var out strings.Builder
	if err := runTop(&out, strings.NewReader(stream), false, 0, 20); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"kurec top — 2 windows", "completes", "p99", "occupancy",
		"gauges: lfb=1.50/3", "job finished: cancelled", "\033[H\033[2J"} {
		if !strings.Contains(s, want) {
			t.Errorf("screen output missing %q", want)
		}
	}
}

func TestRunTopRejectsGarbage(t *testing.T) {
	err := runTop(&strings.Builder{}, strings.NewReader("not json\n"), true, 0, 60)
	if err == nil || !strings.Contains(err.Error(), "bad stream record") {
		t.Errorf("garbage stream error = %v", err)
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline([]float64{0, 0, 0}, 10); got != "▁▁▁" {
		t.Errorf("all-zero sparkline = %q", got)
	}
	got := sparkline([]float64{0, 4, 8}, 10)
	if []rune(got)[0] != '▁' || []rune(got)[2] != '█' {
		t.Errorf("scaled sparkline = %q, want min..max levels", got)
	}
	if got := sparkline([]float64{1, 2, 3, 4, 5}, 2); len([]rune(got)) != 2 {
		t.Errorf("width clamp failed: %q", got)
	}
}

// metricsFixture is a minimal two-window, one-cell report time series.
func metricsFixture() *report.TimeSeries {
	return &report.TimeSeries{
		WindowUs: 10, LastSpanUs: 4,
		Starts: []uint64{3, 1}, Completes: []uint64{2, 2},
		Retries: []uint64{0, 0}, Timeouts: []uint64{0, 0},
		Abandoned: []uint64{0, 0}, Switches: []uint64{1, 0},
		P50Ns: []report.Float{1000, 1000}, P99Ns: []report.Float{1200, 1100}, P999Ns: []report.Float{1200, 1100},
		LFBMean: []report.Float{0.5, 0.25}, LFBMax: []int{1, 1},
		ChipMean: []report.Float{0, 0}, ChipMax: []int{0, 0},
		SQMean: []report.Float{0, 0}, SQMax: []int{0, 0},
		CQMean: []report.Float{0, 0}, CQMax: []int{0, 0},
		RunnableMean: []report.Float{0, 0}, RunnableMax: []int{0, 0},
		TotalStarts: 4, TotalCompletes: 4,
	}
}

func TestWriteMetricsCSV(t *testing.T) {
	cells := []cell[report.TimeSeries]{{table: "fig3", series: "prefetch, t=2", x: 4, v: metricsFixture()}}
	var out strings.Builder
	if err := writeMetricsCSV(&out, cells); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 windows:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "table,series,x,window,start_us,window_us,starts,") {
		t.Errorf("header = %q", lines[0])
	}
	// The comma in the label must be quoted; window 0 spans the full
	// window, the final window only its partial span.
	if want := `fig3,"prefetch, t=2",4,0,0,10,3,2,0,0,0,1,1000,1200,1200,0.5,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0`; lines[1] != want {
		t.Errorf("row 0 = %q\n  want %q", lines[1], want)
	}
	if !strings.HasPrefix(lines[2], `fig3,"prefetch, t=2",4,1,10,4,`) {
		t.Errorf("row 1 start/span wrong: %q", lines[2])
	}
}

func TestCSVField(t *testing.T) {
	if got := csvField("plain"); got != "plain" {
		t.Errorf("plain field quoted: %q", got)
	}
	if got := csvField(`a,"b"`); got != `"a,""b"""` {
		t.Errorf("quoting = %q", got)
	}
}
