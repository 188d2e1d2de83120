package ino_test

import (
	"testing"

	"clear/internal/bench"
	"clear/internal/ino"
	"clear/internal/prog"
	"clear/internal/recovery"
)

// flipAndFlush injects a flip and immediately invokes flush recovery (the
// parity checker detects the corrupted latch before it is consumed).
func flipAndFlush(p *prog.Program, bit, cycle, nom int) (prog.Result, bool) {
	c := ino.New(p)
	for i := 0; i < cycle && !c.Done(); i++ {
		c.Step()
	}
	if c.Done() {
		return c.Result(), true
	}
	c.FlipBits(bit)
	c.FlushRecover()
	return c.Run(3 * nom), false
}

// Simulated flush recovery must actually correct every detected error in
// the recoverable stages — validating the analytic model that treats
// parity+flush-protected flip-flops as fully suppressed.
func TestFlushRecoveryCorrectsRecoverableStages(t *testing.T) {
	for _, bname := range []string{"gap", "vortex", "inner_product"} {
		p := bench.ByName(bname).MustProgram()
		nom := ino.New(p).Run(1_000_000).Steps
		space := ino.Space()
		checked := 0
		for bit := 0; bit < space.NumBits(); bit += 5 {
			if !recovery.Recoverable(recovery.Flush, "InO", space, bit) {
				continue
			}
			for _, cycle := range []int{nom / 4, nom / 2, 3 * nom / 4} {
				res, late := flipAndFlush(p, bit, cycle, nom)
				if late {
					continue
				}
				if res.Status != prog.StatusHalted || !p.OutputsEqual(res.Output) {
					name, _ := space.NameOf(bit)
					t.Fatalf("%s: flush failed to recover flip in %s (bit %d, cycle %d): %v",
						bname, name, bit, cycle, res.Status)
				}
				checked++
			}
		}
		if checked < 100 {
			t.Fatalf("%s: only %d recoverable flips exercised", bname, checked)
		}
	}
}

// The flush-recovery penalty must be small (pipeline refill), on the order
// of the paper's 7-cycle latency.
func TestFlushRecoveryLatency(t *testing.T) {
	p := bench.ByName("gap").MustProgram()
	nom := ino.New(p).Run(1_000_000).Steps
	f, _ := ino.Space().Lookup("e.op1")
	res, _ := flipAndFlush(p, f.Offset()+3, nom/2, nom)
	if res.Status != prog.StatusHalted {
		t.Fatalf("status %v", res.Status)
	}
	penalty := res.Steps - nom
	if penalty < 0 || penalty > 3*recovery.Latency(recovery.Flush, "InO") {
		t.Fatalf("flush penalty %d cycles (expected ~%d)", penalty, recovery.Latency(recovery.Flush, "InO"))
	}
	t.Logf("flush recovery penalty: %d cycles (paper: %d)", penalty, recovery.Latency(recovery.Flush, "InO"))
}

// Errors past the memory-write stage must escape flush recovery at least
// sometimes — empirically validating the Heuristic-1 partition.
func TestFlushCannotRecoverPostCommitStages(t *testing.T) {
	p := bench.ByName("gap").MustProgram()
	nom := ino.New(p).Run(1_000_000).Steps
	space := ino.Space()
	escaped := 0
	for _, name := range []string{"w.result", "x.result", "x.storeval", "w.ctrl.inst"} {
		for i, bit := range space.BitsOf(name) {
			if i%2 != 0 {
				continue
			}
			for cycle := nom / 8; cycle < nom; cycle += nom / 8 {
				res, late := flipAndFlush(p, bit, cycle, nom)
				if late {
					continue
				}
				if res.Status != prog.StatusHalted || !p.OutputsEqual(res.Output) {
					escaped++
				}
			}
		}
	}
	if escaped == 0 {
		t.Fatal("no post-commit flip escaped flush recovery; the recoverability partition would be vacuous")
	}
	t.Logf("%d post-commit flips escaped flush recovery, as the paper's model requires", escaped)
}

// Flush recovery during normal (error-free) operation must be harmless:
// it only discards uncommitted work that gets refetched.
func TestFlushRecoveryIsIdempotentOnCleanRuns(t *testing.T) {
	p := bench.ByName("parser").MustProgram()
	nom := ino.New(p).Run(1_000_000).Steps
	for _, cycle := range []int{17, nom / 3, nom / 2, nom - 5} {
		c := ino.New(p)
		for i := 0; i < cycle && !c.Done(); i++ {
			c.Step()
		}
		c.FlushRecover()
		res := c.Run(3 * nom)
		if res.Status != prog.StatusHalted || !p.OutputsEqual(res.Output) {
			t.Fatalf("clean flush at cycle %d broke execution: %v", cycle, res.Status)
		}
	}
}
