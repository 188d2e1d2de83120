package ino

import (
	"testing"

	"clear/internal/bench"
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

// TestMatchesSetsAsideInertBits pins what Matches sets aside. At a mid-run
// checkpoint of three benchmarks, a core restored from it with any one bit
// flipped must match exactly when the bit is inert (the in-order core has
// no dead payloads), and with every inert bit flipped at once it must
// still match, without allocating. A difference in the retired counter
// alone matches; one in the cycle counter, the output, memory, the
// register file or the flush-recovery registers does not.
func TestMatchesSetsAsideInertBits(t *testing.T) {
	for _, name := range []string{"gzip", "inner_product", "mcf"} {
		p := bench.ByName(name).MustProgram()
		nominal := New(p).Run(10_000_000).Steps
		ref := New(p)
		for ref.Cycles() < nominal/2 {
			ref.Step()
		}
		ck := ref.Snapshot()
		c := New(p)
		var inert []int
		for bit := 0; bit < sharedSpace.NumBits(); bit++ {
			want := sharedSpace.Inert(bit)
			if ref.Dead(bit) {
				t.Fatalf("%s: bit %d is dead; the in-order core declares no dead payloads", name, bit)
			}
			c.Restore(ck)
			c.FlipBits(bit)
			if got := c.Matches(ck); got != want {
				field, _ := sharedSpace.NameOf(bit)
				t.Fatalf("%s: bit %d (%s, inert %v) flipped: Matches = %v, want %v", name, bit, field, want, got, want)
			}
			if want {
				inert = append(inert, bit)
			}
		}
		c.Restore(ck)
		c.FlipBits(inert...)
		if !c.Matches(ck) {
			t.Fatalf("%s: all %d inert bits flipped together: Matches = false", name, len(inert))
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
			{"regfile", func(c *Core) { c.regfile[1] ^= 1 }, false},
			{"recoveryNext", func(c *Core) { c.recoveryNext ^= 4 }, false},
			{"nextAtM", func(c *Core) { c.nextAtM ^= 4 }, false},
		} {
			c.Restore(ck)
			d.perturb(c)
			if got := c.Matches(ck); got != d.want {
				t.Errorf("%s: a %s-only difference: Matches = %v, want %v", name, d.what, got, d.want)
			}
		}
	}
}
