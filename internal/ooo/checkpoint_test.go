package ooo

import (
	"testing"

	"clear/internal/bench"
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

// TestMatchesSetsAsideDeadBits pins what Matches sets aside. At a mid-run
// checkpoint of three benchmarks, a core restored from it with any one bit
// flipped must match exactly when the bit is inert or dead in the
// checkpoint's state (Dead asked of the core the checkpoint was taken
// from), and with every such bit flipped at once it must still match,
// without allocating. A difference in the retired counter alone matches;
// one in the cycle counter, the output, memory, the register file or an
// SRAM does not.
func TestMatchesSetsAsideDeadBits(t *testing.T) {
	for _, name := range []string{"gzip", "inner_product", "mcf"} {
		p := bench.ByName(name).MustProgram()
		nominal := New(p).Run(10_000_000).Steps
		ref := New(p)
		for ref.Cycles() < nominal/2 {
			ref.Step()
		}
		ck := ref.Snapshot()
		c := New(p)
		var masked []int
		dead := 0
		for bit := 0; bit < sharedSpace.NumBits(); bit++ {
			want := sharedSpace.Inert(bit) || ref.Dead(bit)
			c.Restore(ck)
			c.FlipBits(bit)
			if got := c.Matches(ck); got != want {
				field, _ := sharedSpace.NameOf(bit)
				t.Fatalf("%s: bit %d (%s, inert %v, dead %v) flipped: Matches = %v, want %v",
					name, bit, field, sharedSpace.Inert(bit), ref.Dead(bit), got, want)
			}
			if want {
				masked = append(masked, bit)
			}
			if ref.Dead(bit) {
				dead++
			}
		}
		if dead == 0 {
			t.Fatalf("%s: no flip-flop is dead at the checkpoint; the test lost its edge", name)
		}
		c.Restore(ck)
		c.FlipBits(masked...)
		if !c.Matches(ck) {
			t.Fatalf("%s: all %d inert or dead bits flipped together: Matches = false", name, len(masked))
		}
		if n := testing.AllocsPerRun(10, func() { c.Matches(ck) }); n != 0 {
			t.Fatalf("%s: a masked Matches allocates %v times per call", name, n)
		}
		for _, d := range []struct {
			what    string
			perturb func(c *Core)
			want    bool
		}{
			{"retired", func(c *Core) { c.retired++ }, true},
			{"cycles", func(c *Core) { c.cycles++ }, false},
			{"out", func(c *Core) { c.out = append(c.out, 1) }, false},
			{"mem", func(c *Core) { c.mem[len(c.mem)-1] ^= 1 }, false},
			{"arf", func(c *Core) { c.arf[1] ^= 1 }, false},
			{"btbTgt", func(c *Core) { c.btbTgt[3] ^= 1 }, false},
			{"gshare", func(c *Core) { c.gshare[5] ^= 1 }, false},
			{"cacheTag", func(c *Core) { c.cacheTag[2] ^= 1 }, false},
		} {
			c.Restore(ck)
			d.perturb(c)
			if got := c.Matches(ck); got != d.want {
				t.Errorf("%s: a %s-only difference: Matches = %v, want %v", name, d.what, got, d.want)
			}
		}
		t.Logf("%s at cycle %d: %d of %d bits set aside, %d of them dead",
			name, ck.Cycles, len(masked), sharedSpace.NumBits(), dead)
	}
}
