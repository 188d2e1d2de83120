package ino

import (
	"math/rand"
	"testing"

	"clear/internal/isa"
	"clear/internal/prog"
	"clear/internal/sim"
)

func mustProg(t testing.TB, name string, b *isa.Builder, data []uint32, mem int) *prog.Program {
	t.Helper()
	p, err := prog.New(name, b.Items(), data, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ComputeExpected(2_000_000); err != nil {
		t.Fatal(err)
	}
	return p
}

// runBoth runs p on the ISS and the pipeline and checks architectural
// equivalence of outputs and termination status.
func runBoth(t *testing.T, p *prog.Program) prog.Result {
	t.Helper()
	c := New(p)
	res := c.Run(5_000_000)
	if res.Status != prog.StatusHalted {
		t.Fatalf("%s: pipeline status %v after %d cycles", p.Name, res.Status, res.Steps)
	}
	if !p.OutputsEqual(res.Output) {
		t.Fatalf("%s: pipeline output %v != golden %v", p.Name, res.Output, p.Expected)
	}
	return res
}

func TestSumLoop(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(1, 0)
	b.Li(2, 0)
	b.Li(3, 200)
	b.Label("loop")
	b.Addi(2, 2, 1)
	b.Add(1, 1, 2)
	b.Bne(2, 3, "loop")
	b.Out(1)
	b.Halt()
	p := mustProg(t, "sum", b, nil, 16)
	res := runBoth(t, p)
	if res.Output[0] != 20100 {
		t.Fatalf("sum = %d", res.Output[0])
	}
}

func TestLoadUseHazard(t *testing.T) {
	// lw immediately followed by use: interlock must stall correctly.
	data := []uint32{7, 35}
	b := isa.NewBuilder()
	b.Li(1, 0)
	b.Lw(2, 1, 0) // r2 = 7
	b.Addi(3, 2, 1)
	b.Lw(4, 1, 1) // r4 = 35
	b.Add(5, 4, 3)
	b.Out(5) // 43
	b.Lw(6, 1, 0)
	b.Sw(6, 1, 1) // mem[1] = 7 (store data hazard)
	b.Lw(7, 1, 1)
	b.Out(7) // 7
	b.Halt()
	p := mustProg(t, "loaduse", b, data, 16)
	res := runBoth(t, p)
	if res.Output[0] != 43 || res.Output[1] != 7 {
		t.Fatalf("output %v", res.Output)
	}
}

func TestForwardingChain(t *testing.T) {
	// Dependent ALU ops back to back exercise E->E, M->E, X->E bypasses.
	b := isa.NewBuilder()
	b.Li(1, 1)
	b.Add(2, 1, 1) // 2
	b.Add(3, 2, 2) // 4
	b.Add(4, 3, 3) // 8
	b.Add(5, 4, 4) // 16
	b.Add(6, 5, 4) // 24
	b.Out(6)
	b.Halt()
	p := mustProg(t, "fwd", b, nil, 16)
	res := runBoth(t, p)
	if res.Output[0] != 24 {
		t.Fatalf("got %d", res.Output[0])
	}
}

func TestBranchFlush(t *testing.T) {
	// Taken branches must squash wrong-path instructions (incl. OUT/SW).
	b := isa.NewBuilder()
	b.Li(1, 5)
	b.Li(2, 5)
	b.Beq(1, 2, "taken")
	b.Out(1) // wrong path: must not emit
	b.Li(3, 99)
	b.Label("taken")
	b.Li(4, 1)
	b.Out(4)
	b.Halt()
	p := mustProg(t, "brflush", b, nil, 16)
	res := runBoth(t, p)
	if len(res.Output) != 1 || res.Output[0] != 1 {
		t.Fatalf("output %v", res.Output)
	}
}

func TestCallReturn(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(5, 10)
	b.Jal(31, "double")
	b.Jal(31, "double")
	b.Out(5) // 40
	b.Halt()
	b.Label("double")
	b.Add(5, 5, 5)
	b.Ret(31)
	p := mustProg(t, "call", b, nil, 16)
	res := runBoth(t, p)
	if res.Output[0] != 40 {
		t.Fatalf("got %d", res.Output[0])
	}
}

func TestMulDiv(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(1, -7)
	b.Li(2, 9)
	b.Mul(3, 1, 2)
	b.Out(3) // -63
	b.Li(1, 100000)
	b.Mulh(3, 1, 1)
	b.Out(3) // high word of 1e10
	b.Li(2, 3)
	b.Div(4, 1, 2)
	b.Out(4)
	b.Rem(5, 1, 2)
	b.Out(5)
	b.Halt()
	p := mustProg(t, "muldiv", b, nil, 16)
	res := runBoth(t, p)
	if int32(res.Output[0]) != -63 {
		t.Fatalf("mul got %d", int32(res.Output[0]))
	}
	if res.Output[1] != uint32(uint64(10_000_000_000)>>32) {
		t.Fatalf("mulh got %d", res.Output[1])
	}
	if res.Output[2] != 33333 || res.Output[3] != 1 {
		t.Fatalf("div/rem got %v", res.Output[2:])
	}
}

func TestTrapOnIllegalAndOOB(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(1, 1<<20)
	b.Lw(2, 1, 0)
	b.Halt()
	p, err := prog.New("oob", b.Items(), nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p)
	res := c.Run(10000)
	if res.Status != prog.StatusTrap {
		t.Fatalf("status %v, want trap", res.Status)
	}

	b = isa.NewBuilder()
	b.Li(1, 3)
	b.Li(2, 0)
	b.Div(3, 1, 2)
	b.Halt()
	p, _ = prog.New("div0", b.Items(), nil, 16)
	res = New(p).Run(10000)
	if res.Status != prog.StatusTrap {
		t.Fatalf("div0 status %v", res.Status)
	}
}

func TestTrapd(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(1, 1)
	b.Trapd()
	b.Halt()
	p, _ := prog.New("td", b.Items(), nil, 16)
	res := New(p).Run(10000)
	if res.Status != prog.StatusDetected {
		t.Fatalf("status %v", res.Status)
	}
}

func TestHangCutoff(t *testing.T) {
	b := isa.NewBuilder()
	b.Label("spin")
	b.Jmp("spin")
	p, _ := prog.New("spin", b.Items(), nil, 16)
	res := New(p).Run(500)
	if res.Status != prog.StatusMaxSteps {
		t.Fatalf("status %v", res.Status)
	}
}

// randomProgram generates a random but well-formed straight-line-plus-loops
// program and cross-checks pipeline vs functional semantics.
func randomProgram(rng *rand.Rand) *isa.Builder {
	b := isa.NewBuilder()
	// init registers r1..r8 with random values
	for r := uint8(1); r <= 8; r++ {
		b.Li(r, int32(rng.Uint32()))
	}
	nBlocks := 3 + rng.Intn(4)
	for blk := 0; blk < nBlocks; blk++ {
		n := 3 + rng.Intn(8)
		for i := 0; i < n; i++ {
			rd := uint8(1 + rng.Intn(8))
			rs1 := uint8(1 + rng.Intn(8))
			rs2 := uint8(1 + rng.Intn(8))
			switch rng.Intn(8) {
			case 0:
				b.Add(rd, rs1, rs2)
			case 1:
				b.Sub(rd, rs1, rs2)
			case 2:
				b.Xor(rd, rs1, rs2)
			case 3:
				b.Mul(rd, rs1, rs2)
			case 4:
				b.Sw(rs1, 0, int32(rng.Intn(16)))
				b.Lw(rd, 0, int32(rng.Intn(16)))
			case 5:
				b.Slt(rd, rs1, rs2)
			case 6:
				b.Srl(rd, rs1, rs2)
			case 7:
				b.Addi(rd, rs1, int32(rng.Intn(100)-50))
			}
		}
		b.Out(uint8(1 + rng.Intn(8)))
	}
	b.Halt()
	return b
}

func TestRandomProgramsMatchISS(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 30; i++ {
		b := randomProgram(rng)
		p, err := prog.New("rand", b.Items(), nil, 32)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.ComputeExpected(100000); err != nil {
			t.Fatal(err)
		}
		res := New(p).Run(1_000_000)
		if res.Status != prog.StatusHalted {
			t.Fatalf("prog %d: status %v", i, res.Status)
		}
		if !p.OutputsEqual(res.Output) {
			t.Fatalf("prog %d: output mismatch\n got %v\nwant %v", i, res.Output, p.Expected)
		}
	}
}

func TestSpaceProperties(t *testing.T) {
	s := Space()
	if s.NumBits() < 900 || s.NumBits() > 2000 {
		t.Fatalf("InO flip-flop count %d outside the Leon3-like range", s.NumBits())
	}
	if _, ok := s.Lookup("e.ctrl.inst"); !ok {
		t.Fatal("missing e.ctrl.inst")
	}
	if _, ok := s.Lookup("w.s.icc"); !ok {
		t.Fatal("missing w.s.icc")
	}
	t.Logf("InO core: %d flip-flops in %d structures", s.NumBits(), s.NumFields())
}

func TestCommitHookSeesRetiredStream(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(1, 3)
	b.Li(2, 4)
	b.Add(3, 1, 2)
	b.Out(3)
	b.Halt()
	p := mustProg(t, "hook", b, nil, 16)
	c := New(p)
	var pcs []uint32
	c.SetCommitHook(func(ev sim.CommitEvent) bool {
		pcs = append(pcs, ev.PC)
		return false
	})
	c.Run(1000)
	// Commit PCs must be exactly program order 0..4.
	if len(pcs) < 4 {
		t.Fatalf("commits: %v", pcs)
	}
	for i, pc := range pcs {
		if int(pc) != i {
			t.Fatalf("commit %d at pc %d", i, pc)
		}
	}
}

func TestCommitHookDetectStops(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(1, 3)
	b.Out(1)
	b.Halt()
	p := mustProg(t, "hookdet", b, nil, 16)
	c := New(p)
	c.SetCommitHook(func(ev sim.CommitEvent) bool { return true })
	res := c.Run(1000)
	if res.Status != prog.StatusDetected {
		t.Fatalf("status %v, want detected", res.Status)
	}
}

func TestInjectionChangesOutcome(t *testing.T) {
	// Flipping a bit of the latched operand mid-run should eventually
	// produce an output mismatch for this data-dependent program.
	b := isa.NewBuilder()
	b.Li(1, 0)
	b.Li(2, 0)
	b.Li(3, 50)
	b.Label("loop")
	b.Addi(2, 2, 1)
	b.Add(1, 1, 2)
	b.Bne(2, 3, "loop")
	b.Out(1)
	b.Halt()
	p := mustProg(t, "inj", b, nil, 16)

	f, _ := Space().Lookup("e.op1")
	mismatches := 0
	for cyc := 20; cyc < 40; cyc++ {
		c := New(p)
		for i := 0; i < cyc; i++ {
			c.Step()
		}
		c.FlipBits(f.Offset() + 16)
		res := c.Run(100000)
		if res.Status == prog.StatusHalted && !p.OutputsEqual(res.Output) {
			mismatches++
		}
	}
	if mismatches == 0 {
		t.Fatal("no injection produced an output mismatch; injection plumbing broken?")
	}
}

func TestResetReuse(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(1, 11)
	b.Out(1)
	b.Halt()
	p := mustProg(t, "r1", b, nil, 16)
	c := New(p)
	res1 := c.Run(1000)
	c.Reset(p)
	res2 := c.Run(1000)
	if res1.Status != res2.Status || len(res2.Output) != 1 || res2.Output[0] != 11 {
		t.Fatalf("reset run differs: %v vs %v", res1, res2)
	}
}

func BenchmarkPipelineCycles(b *testing.B) {
	bb := isa.NewBuilder()
	bb.Li(1, 0)
	bb.Li(2, 0)
	bb.Li(3, 1000000)
	bb.Label("loop")
	bb.Addi(2, 2, 1)
	bb.Add(1, 1, 2)
	bb.Bne(2, 3, "loop")
	bb.Out(1)
	bb.Halt()
	p, _ := prog.New("bench", bb.Items(), nil, 16)
	c := New(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
		if c.Done() {
			c.Reset(p)
		}
	}
}
