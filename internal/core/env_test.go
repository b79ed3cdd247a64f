package core

import (
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/uthread"
)

// TestEnvWorkTimeMatchesConfig pins the Env's one-entry WorkTime memo
// to the function it caches while its argument alternates, repeats,
// and goes to zero and below.
func TestEnvWorkTimeMatchesConfig(t *testing.T) {
	cfg := platform.Default()
	cfg.WorkIPC = 1.7
	e := NewEnv(cfg, replay.ZeroBacking{})
	for _, n := range []int{0, 200, 200, 1, 0, -5, 200, 5000, 3, 3, -1, 0, 1 << 20, 199, 200} {
		if got, want := e.work.Time(&e.cfg, n), cfg.WorkTime(n); got != want {
			t.Errorf("work.Time(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestNewDescQueueNeedsDenseThreadIDs pins the guard on the queue's
// by-ID thread state: threads must carry IDs 0..n-1 in order.
func TestNewDescQueueNeedsDenseThreadIDs(t *testing.T) {
	body := func([][]byte) (uthread.Request, bool) { return uthread.Request{}, false }
	for _, ids := range [][]int{{1}, {0, 2}, {1, 0}, {0, 0}} {
		threads := make([]*uthread.Thread, len(ids))
		for i, id := range ids {
			threads[i] = uthread.NewStep(id, body)
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "descriptor queues need IDs") {
					t.Errorf("IDs %v: recovered %q, want the dense-ID panic", ids, msg)
				}
			}()
			newDescQueue(NewEnv(platform.Default(), replay.ZeroBacking{}), 0, threads, nil)
		}()
	}
	threads := []*uthread.Thread{uthread.NewStep(0, body), uthread.NewStep(1, body)}
	q := newDescQueue(NewEnv(platform.Default(), replay.ZeroBacking{}), 0, threads, nil)
	if len(q.states) != 2 || q.ready.Len() != 2 {
		t.Errorf("dense IDs: %d states, %d ready; want 2 and 2", len(q.states), q.ready.Len())
	}
}
