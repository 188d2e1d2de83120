package ooo

import (
	"testing"

	"clear/internal/isa"
)

// TestSnapshotRestoreRoundTrip snapshots mid-run (with loads, stores,
// branches and the multiplier in flight), finishes, restores, and requires
// the replayed future — including predictor-dependent timing — to be
// cycle-for-cycle identical.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	data := []uint32{3, 5, 7, 9}
	b := isa.NewBuilder()
	b.Li(1, 0)
	b.Li(2, 0)
	b.Li(3, 60)
	b.Label("loop")
	b.Lw(4, 1, 0)
	b.Mul(5, 4, 4)
	b.Add(2, 2, 5)
	b.Sw(2, 0, 8)
	b.Addi(1, 1, 1)
	b.Andi(1, 1, 3)
	b.Addi(3, 3, -1)
	b.Bne(3, 0, "loop")
	b.Out(2)
	b.Halt()
	p := mustProg(t, "ckpt", b, data, 32)

	c := New(p)
	for i := 0; i < 120; i++ {
		c.Step()
	}
	ck := c.Snapshot()
	if !c.Matches(ck) {
		t.Fatal("fresh snapshot does not match its own core")
	}
	r1 := c.Run(5_000_000)
	cyc1 := c.Cycles()

	c.Restore(ck)
	if !c.Matches(ck) {
		t.Fatal("restored core does not match the checkpoint")
	}
	r2 := c.Run(5_000_000)
	if r1.Status != r2.Status || r1.Steps != r2.Steps || c.Cycles() != cyc1 {
		t.Fatalf("replay diverged: %+v vs %+v", r1, r2)
	}
	for i := range r1.Output {
		if r1.Output[i] != r2.Output[i] {
			t.Fatalf("output[%d] diverged", i)
		}
	}
}

// TestMatchesDetectsDivergence requires Matches to catch flip-flop,
// predictor-SRAM and cycle-counter differences.
func TestMatchesDetectsDivergence(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(1, 0)
	b.Li(3, 50)
	b.Label("loop")
	b.Addi(1, 1, 1)
	b.Bne(1, 3, "loop")
	b.Out(1)
	b.Halt()
	p := mustProg(t, "ckpt2", b, nil, 16)

	c := New(p)
	for i := 0; i < 40; i++ {
		c.Step()
	}
	ck := c.Snapshot()
	c.FlipBits(11)
	if c.Matches(ck) {
		t.Fatal("Matches missed a flipped flip-flop")
	}
	c.FlipBits(11)
	if !c.Matches(ck) {
		t.Fatal("Matches false negative after undoing the flip")
	}
	c.gshare[5] ^= 1
	if c.Matches(ck) {
		t.Fatal("Matches missed a predictor-SRAM difference")
	}
	c.Restore(ck)
	c.Step()
	if c.Matches(ck) {
		t.Fatal("Matches missed a cycle-count difference")
	}
}
