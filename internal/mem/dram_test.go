package mem

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestReadLatency(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, 80*sim.Nanosecond, 48)
	g := eng.NewGate()
	d.Read(g)
	eng.Run()
	if !g.Fired() || g.FiredAt() != 80*sim.Nanosecond {
		t.Errorf("read completed at %v, want 80ns", g.FiredAt())
	}
	if d.Reads() != 1 || d.Writes() != 0 {
		t.Errorf("reads=%d writes=%d, want 1,0", d.Reads(), d.Writes())
	}
}

func TestWriteCounted(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, 80*sim.Nanosecond, 48)
	g := eng.NewGate()
	d.Write(g)
	eng.Run()
	if d.Writes() != 1 {
		t.Errorf("writes=%d, want 1", d.Writes())
	}
}

func TestParallelReadsWithinLimit(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, 80*sim.Nanosecond, 48)
	gates := make([]*sim.Gate, 48)
	for i := range gates {
		gates[i] = eng.NewGate()
		d.Read(gates[i])
	}
	end := eng.Run()
	// All 48 fit simultaneously: total time is one latency.
	if end != 80*sim.Nanosecond {
		t.Errorf("48 parallel reads took %v, want 80ns", end)
	}
	if d.MaxOutstandingSeen() != 48 {
		t.Errorf("max outstanding %d, want 48", d.MaxOutstandingSeen())
	}
}

func TestOutstandingLimitSerializes(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, 100*sim.Nanosecond, 2)
	for i := 0; i < 4; i++ {
		d.Read(eng.NewGate())
	}
	end := eng.Run()
	// 4 reads through 2 slots: two waves of 100ns.
	if end != 200*sim.Nanosecond {
		t.Errorf("4 reads over 2 slots took %v, want 200ns", end)
	}
}

// TestThenMatchesGateWaiter: a ReadThen/WriteThen continuation runs at
// the instant, in the order and with the event count that the single
// waiter of a Read/Write gate would.
func TestThenMatchesGateWaiter(t *testing.T) {
	run := func(then bool) ([]string, uint64) {
		eng := sim.NewEngine()
		d := New(eng, 80*sim.Nanosecond, 2)
		var log []string
		for i := 0; i < 5; i++ {
			i := i
			fn := func() { log = append(log, fmt.Sprintf("%d@%v", i, eng.Now())) }
			switch {
			case then && i%2 == 0:
				d.ReadThen(fn)
			case then:
				d.WriteThen(fn)
			default:
				g := eng.NewGate()
				if i%2 == 0 {
					d.Read(g)
				} else {
					d.Write(g)
				}
				g.OnFire(fn)
			}
		}
		eng.At(160*sim.Nanosecond, func() { log = append(log, "timer") })
		eng.Run()
		return log, eng.Executed()
	}
	gateLog, gateEvents := run(false)
	thenLog, thenEvents := run(true)
	if !reflect.DeepEqual(gateLog, thenLog) || gateEvents != thenEvents {
		t.Errorf("continuations %v (%d events), gate waiters %v (%d events)", thenLog, thenEvents, gateLog, gateEvents)
	}
}
