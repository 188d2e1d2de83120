package archres

import (
	"testing"

	"clear/internal/bench"
	"clear/internal/ino"
	"clear/internal/ooo"
	"clear/internal/prog"
	"clear/internal/sim"
)

// commitStream records the commit events of a fault-free run.
func commitStream(t *testing.T, c sim.Core) []sim.CommitEvent {
	t.Helper()
	var evs []sim.CommitEvent
	c.SetCommitHook(func(ev sim.CommitEvent) bool {
		evs = append(evs, ev)
		return false
	})
	if res := c.Run(5_000_000); res.Status != prog.StatusHalted {
		t.Fatalf("fault-free run: %v", res.Status)
	}
	if len(evs) < 100 {
		t.Fatalf("only %d commits recorded", len(evs))
	}
	return evs
}

// observeAll feeds evs to chk and fails on any detection (the stream is
// fault-free).
func observeAll(t *testing.T, chk sim.Checker, evs []sim.CommitEvent) {
	t.Helper()
	for i, ev := range evs {
		if chk.Observe(ev) {
			t.Fatalf("false detection at commit %d", i)
		}
	}
}

// TestCheckerStateOperations pins the sim.Checker contract for both
// built-in checkers on a real commit stream: a saved state round-trips
// through a load, CopyFrom and Equal behave like a fresh checker stepped
// over the same commit prefix, a clone is independent of the checker it
// was saved from, and the copy's future detections match the original's.
func TestCheckerStateOperations(t *testing.T) {
	gzip := bench.ByName("gzip").MustProgram()
	ip := bench.ByName("inner_product").MustProgram()
	for _, tc := range []struct {
		name string
		make func(*prog.Program) sim.Checker
		p    *prog.Program
		evs  []sim.CommitEvent
	}{
		{"dfc", NewDFCChecker, gzip, commitStream(t, ino.New(gzip))},
		{"monitor", NewMonitorChecker, ip, commitStream(t, ooo.New(ip))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := len(tc.evs) / 2
			prefix := tc.make(tc.p)
			observeAll(t, prefix, tc.evs[:k])

			// Save, run on, load: the loaded checker is back at the prefix.
			live := tc.make(tc.p)
			observeAll(t, live, tc.evs[:k])
			saved := live.Clone()
			if !saved.Equal(prefix) || !prefix.Equal(saved) {
				t.Fatal("saved state differs from a fresh checker over the same prefix")
			}
			observeAll(t, live, tc.evs[k:])
			if live.Equal(saved) {
				t.Fatal("running on past the save point left the state unchanged")
			}
			if !saved.Equal(prefix) {
				t.Fatal("observing the live checker changed its saved clone")
			}
			live.CopyFrom(saved)
			if !live.Equal(prefix) {
				t.Fatal("loading the saved state did not restore the prefix state")
			}

			// A copy into a fresh checker behaves like the original from
			// here on: same answer to every event, including a corrupted
			// one, and equal states throughout.
			cp := tc.make(tc.p)
			if cp.Equal(prefix) {
				t.Fatal("a reset checker compares equal to one mid-run")
			}
			cp.CopyFrom(prefix)
			bad := tc.evs[k]
			bad.Word ^= 1
			if a, b := prefix.Clone().Observe(bad), cp.Clone().Observe(bad); !a || a != b {
				t.Fatalf("corrupted commit: original detects %v, copy %v (want both true)", a, b)
			}
			for i, ev := range tc.evs[k:] {
				if a, b := prefix.Observe(ev), cp.Observe(ev); a != b {
					t.Fatalf("commit %d: original %v, copy %v", k+i, a, b)
				}
				if !cp.Equal(prefix) {
					t.Fatalf("states diverged at commit %d", k+i)
				}
			}
		})
	}
}

// TestDFCStateIsRunHash checks that Equal sees a corrupted dataflow
// signature even while the control-flow position agrees: a commit with a
// corrupted word mid-block changes only DFC's running hash, which the
// block's end then reports.
func TestDFCStateIsRunHash(t *testing.T) {
	p := bench.ByName("gzip").MustProgram()
	evs := commitStream(t, ino.New(p))
	good, bad := NewDFCChecker(p), NewDFCChecker(p)
	i := 0
	for ; ; i++ {
		observeAll(t, good, evs[i:i+1])
		observeAll(t, bad, evs[i:i+1])
		// stop where the next commit is mid-block (not a block's last)
		d := good.(*dfc)
		if i > 10 && d.blockPos+1 < p.Blocks[d.curBlock].End {
			break
		}
	}
	ev := evs[i+1]
	good.Observe(ev)
	ev.Word ^= 1 << 7
	if bad.Observe(ev) {
		t.Fatal("a mid-block corruption must not be reported before the block ends")
	}
	gd, bd := good.(*dfc), bad.(*dfc)
	if gd.curBlock != bd.curBlock || gd.blockPos != bd.blockPos || gd.runHash == bd.runHash {
		t.Fatalf("want only runHash to differ: good %+v bad %+v", *gd, *bd)
	}
	if good.Equal(bad) {
		t.Fatal("Equal missed a runHash difference")
	}
	detected := false
	for _, ev := range evs[i+2:] {
		if bad.Observe(ev) {
			detected = true
			break
		}
	}
	if !detected {
		t.Fatal("the corrupted signature was never reported")
	}
}
