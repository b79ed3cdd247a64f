package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"repro/internal/serve"
)

// cmdTop is the live terminal view of a kurecd job's flight-recorder
// stream: it attaches to GET /v1/runs/{id}/metrics and renders each
// sealed simulation window as it arrives — throughput and p99
// sparklines plus the occupancy gauges on a TTY, one summary line per
// window with -plain (the mode CI and pipes get automatically).
//
//	kurec top job-0003                          # against localhost:8080
//	kurec top -addr http://host:9090 job-0003
//	kurec top -plain -n 20 job-0003             # 20 windows, then exit
//	kurec top http://host:9090/v1/runs/job-0003/metrics
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "kurecd base URL")
	plain := fs.Bool("plain", false, "one line per window instead of the live screen (default when stdout is not a terminal)")
	n := fs.Int("n", 0, "exit after this many window records (0 = stream until the job finishes)")
	width := fs.Int("width", 60, "sparkline width in windows (screen mode)")
	target, err := parseOperand(fs, args)
	if err != nil {
		return err
	}
	if target == "" {
		return fmt.Errorf("top needs a job id or metrics URL")
	}
	if *n < 0 {
		return fmt.Errorf("-n %d must be non-negative", *n)
	}

	url := target
	if !strings.Contains(target, "://") {
		url = strings.TrimSuffix(*addr, "/") + "/v1/runs/" + target + "/metrics"
	}
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}

	mode := *plain
	if !mode && !stdoutIsTerminal() {
		mode = true
	}
	return runTop(os.Stdout, resp.Body, mode, *n, *width)
}

// stdoutIsTerminal reports whether stdout is a character device, the
// cheap stdlib-only TTY test the progress meter uses too.
func stdoutIsTerminal() bool {
	fi, err := os.Stdout.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// topState accumulates the stream for rendering.
type topState struct {
	windows   []serve.StreamWindow // every window record seen, in arrival order
	lastSeq   uint64
	gaps      uint64 // records lost to the server's bounded buffer
	starts    uint64
	completes uint64
	retries   uint64
	timeouts  uint64
	abandoned uint64
}

// runTop consumes an NDJSON metrics stream and renders it: the
// screen-oriented live view when plain is false, one line per window
// when true. It returns once the stream ends (done record or EOF) or
// after n window records when n > 0. Factored from cmdTop so tests
// drive it with a synthetic stream.
func runTop(out io.Writer, stream io.Reader, plain bool, n, width int) error {
	if width < 10 {
		width = 10
	}
	var st topState
	sc := bufio.NewScanner(stream)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev serve.StreamWindow
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return fmt.Errorf("bad stream record: %v", err)
		}
		switch ev.Type {
		case "window":
			if len(st.windows) > 0 && ev.Seq > st.lastSeq+1 {
				st.gaps += ev.Seq - st.lastSeq - 1
			}
			st.lastSeq = ev.Seq
			st.windows = append(st.windows, ev)
			st.starts += ev.Starts
			st.completes += ev.Completes
			st.retries += ev.Retries
			st.timeouts += ev.Timeouts
			st.abandoned += ev.Abandoned
			if plain {
				fmt.Fprintln(out, plainLine(ev))
			} else {
				renderScreen(out, &st, width, "")
			}
			if n > 0 && len(st.windows) >= n {
				return nil
			}
		case "done":
			if plain {
				fmt.Fprintf(out, "done state=%s windows=%d gaps=%d\n", ev.State, len(st.windows), st.gaps)
			} else {
				renderScreen(out, &st, width, string(ev.State))
			}
			return nil
		}
	}
	return sc.Err()
}

// plainLine renders one window record as a stable, greppable line.
func plainLine(ev serve.StreamWindow) string {
	return fmt.Sprintf(
		"window seq=%d run=%q idx=%d t=%gus span=%gus starts=%d completes=%d retries=%d timeouts=%d abandoned=%d p50=%gns p99=%gns lfb=%.2f chipq=%.2f sq=%.2f cq=%.2f runq=%.2f",
		ev.Seq, ev.Run, ev.Index, ev.StartUs, ev.SpanUs,
		ev.Starts, ev.Completes, ev.Retries, ev.Timeouts, ev.Abandoned,
		ev.P50Ns, ev.P99Ns,
		ev.LFBMean, ev.ChipMean, ev.SQMean, ev.CQMean, ev.RunnableMean)
}

// sparkRunes are the eight block-element levels of a sparkline cell.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders the last width values scaled against their max;
// an all-zero span renders as the lowest level.
func sparkline(vals []float64, width int) string {
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if max > 0 {
			i = int(v / max * float64(len(sparkRunes)-1))
			if i < 0 {
				i = 0
			}
			if i >= len(sparkRunes) {
				i = len(sparkRunes) - 1
			}
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

// renderScreen redraws the live view: totals, the latest window, and
// sparklines over the most recent windows. final, when non-empty, is
// the job's terminal state.
func renderScreen(out io.Writer, st *topState, width int, final string) {
	last := st.windows[len(st.windows)-1]
	completes := make([]float64, len(st.windows))
	p99s := make([]float64, len(st.windows))
	occ := make([]float64, len(st.windows))
	for i, w := range st.windows {
		completes[i] = float64(w.Completes)
		p99s[i] = w.P99Ns
		occ[i] = w.LFBMean + w.ChipMean + w.SQMean + w.CQMean
	}

	fmt.Fprint(out, "\033[H\033[2J") // home + clear
	fmt.Fprintf(out, "kurec top — %d windows, run %q\n", len(st.windows), last.Run)
	fmt.Fprintf(out, "totals: starts=%d completes=%d retries=%d timeouts=%d abandoned=%d gaps=%d\n",
		st.starts, st.completes, st.retries, st.timeouts, st.abandoned, st.gaps)
	fmt.Fprintf(out, "window %3d  t=%-10g span=%gus\n", last.Index, last.StartUs, last.SpanUs)
	fmt.Fprintf(out, "  completes %6d  %s\n", last.Completes, sparkline(completes, width))
	fmt.Fprintf(out, "  p99       %6g  %s\n", last.P99Ns, sparkline(p99s, width))
	fmt.Fprintf(out, "  occupancy %6.2f  %s\n", occ[len(occ)-1], sparkline(occ, width))
	fmt.Fprintf(out, "  gauges: lfb=%.2f/%d chipq=%.2f/%d sq=%.2f/%d cq=%.2f/%d runq=%.2f/%d\n",
		last.LFBMean, last.LFBMax, last.ChipMean, last.ChipMax,
		last.SQMean, last.SQMax, last.CQMean, last.CQMax,
		last.RunnableMean, last.RunnableMax)
	if final != "" {
		fmt.Fprintf(out, "job finished: %s\n", final)
	}
}
