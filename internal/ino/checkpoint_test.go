package ino

import (
	"testing"

	"clear/internal/isa"
	"clear/internal/prog"
)

func checkpointProgram(t *testing.T) *prog.Program {
	t.Helper()
	b := isa.NewBuilder()
	b.Li(1, 0)
	b.Li(2, 0)
	b.Li(3, 40)
	b.Label("loop")
	b.Addi(2, 2, 1)
	b.Add(1, 1, 2)
	b.Sw(1, 0, 4)
	b.Lw(4, 0, 4)
	b.Bne(2, 3, "loop")
	b.Out(1)
	b.Halt()
	p, err := prog.New("ckpt", b.Items(), nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ComputeExpected(10000); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSnapshotRestoreRoundTrip runs to a mid-point, snapshots, finishes, then
// restores and finishes again: both futures must be identical, and the
// restored state must match its own checkpoint.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := checkpointProgram(t)
	c := New(p)
	for i := 0; i < 50; i++ {
		c.Step()
	}
	ck := c.Snapshot()
	if !c.Matches(ck) {
		t.Fatal("fresh snapshot does not match its own core")
	}
	r1 := c.Run(100000)
	cyc1, ret1 := c.Cycles(), c.Retired()

	c.Restore(ck)
	if !c.Matches(ck) {
		t.Fatal("restored core does not match the checkpoint")
	}
	if c.Cycles() != 50 {
		t.Fatalf("restored cycle counter %d, want 50", c.Cycles())
	}
	r2 := c.Run(100000)
	if r1.Status != r2.Status || r1.Steps != r2.Steps {
		t.Fatalf("replay diverged: %+v vs %+v", r1, r2)
	}
	if len(r1.Output) != len(r2.Output) {
		t.Fatalf("output length diverged: %d vs %d", len(r1.Output), len(r2.Output))
	}
	for i := range r1.Output {
		if r1.Output[i] != r2.Output[i] {
			t.Fatalf("output[%d] diverged", i)
		}
	}
	if c.Cycles() != cyc1 || c.Retired() != ret1 {
		t.Fatalf("counters diverged: (%d,%d) vs (%d,%d)", c.Cycles(), c.Retired(), cyc1, ret1)
	}
}

// TestMatchesDetectsDivergence flips one bit and requires Matches to fail,
// then verifies that memory and output divergence are also caught.
func TestMatchesDetectsDivergence(t *testing.T) {
	p := checkpointProgram(t)
	c := New(p)
	for i := 0; i < 30; i++ {
		c.Step()
	}
	ck := c.Snapshot()
	c.FlipBits(3)
	if c.Matches(ck) {
		t.Fatal("Matches missed a flipped flip-flop")
	}
	c.FlipBits(3)
	if !c.Matches(ck) {
		t.Fatal("Matches false negative after undoing the flip")
	}
	c.Restore(ck)
	c.Step()
	if c.Matches(ck) {
		t.Fatal("Matches missed a cycle-count difference")
	}
}
