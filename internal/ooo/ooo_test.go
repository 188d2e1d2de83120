package ooo

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

func runBoth(t *testing.T, p *prog.Program) prog.Result {
	t.Helper()
	c := New(p)
	res := c.Run(5_000_000)
	if res.Status != prog.StatusHalted {
		t.Fatalf("%s: status %v after %d cycles", p.Name, res.Status, res.Steps)
	}
	if !p.OutputsEqual(res.Output) {
		t.Fatalf("%s: output %v != golden %v", p.Name, res.Output, p.Expected)
	}
	return res
}

func TestSumLoop(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(1, 0)
	b.Li(2, 0)
	b.Li(3, 300)
	b.Label("loop")
	b.Addi(2, 2, 1)
	b.Add(1, 1, 2)
	b.Bne(2, 3, "loop")
	b.Out(1)
	b.Halt()
	p := mustProg(t, "sum", b, nil, 16)
	res := runBoth(t, p)
	if res.Output[0] != 45150 {
		t.Fatalf("sum = %d", res.Output[0])
	}
}

func TestMemoryDisambiguation(t *testing.T) {
	// Store followed closely by a load to the same address must forward.
	data := []uint32{11, 22, 33, 44}
	b := isa.NewBuilder()
	b.Li(1, 0)
	b.Li(2, 100)
	b.Sw(2, 1, 2)  // mem[2] = 100
	b.Lw(3, 1, 2)  // must see 100 (forwarded or ordered)
	b.Lw(4, 1, 0)  // 11
	b.Add(5, 3, 4) // 111
	b.Out(5)
	b.Sw(5, 1, 3)
	b.Lw(6, 1, 3)
	b.Out(6) // 111
	b.Halt()
	p := mustProg(t, "memdis", b, data, 64)
	res := runBoth(t, p)
	if res.Output[0] != 111 || res.Output[1] != 111 {
		t.Fatalf("output %v", res.Output)
	}
}

func TestBranchMispredictSquash(t *testing.T) {
	// Data-dependent branches; wrong-path OUT/SW must never commit.
	b := isa.NewBuilder()
	b.Li(1, 0)  // i
	b.Li(2, 20) // n
	b.Li(3, 0)  // sum of even i
	b.Label("loop")
	b.Andi(4, 1, 1)
	b.Bne(4, 0, "odd")
	b.Add(3, 3, 1)
	b.Label("odd")
	b.Addi(1, 1, 1)
	b.Bne(1, 2, "loop")
	b.Out(3) // 0+2+...+18 = 90
	b.Halt()
	p := mustProg(t, "brsq", b, nil, 16)
	res := runBoth(t, p)
	if res.Output[0] != 90 {
		t.Fatalf("sum = %d", res.Output[0])
	}
}

func TestMulPipelined(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(1, 12345)
	b.Li(2, 6789)
	b.Mul(3, 1, 2)
	b.Mulh(4, 1, 2)
	b.Mul(5, 3, 2) // dependent on pipelined result
	b.Out(3)
	b.Out(4)
	b.Out(5)
	b.Halt()
	p := mustProg(t, "mul", b, nil, 16)
	runBoth(t, p)
}

func TestCallReturnJALR(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(5, 1)
	b.Jal(31, "inc")
	b.Jal(31, "inc")
	b.Jal(31, "inc")
	b.Out(5) // 8
	b.Halt()
	b.Label("inc")
	b.Add(5, 5, 5)
	b.Ret(31)
	p := mustProg(t, "jalr", b, nil, 16)
	res := runBoth(t, p)
	if res.Output[0] != 8 {
		t.Fatalf("got %d", res.Output[0])
	}
}

func TestTraps(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(1, 1<<20)
	b.Lw(2, 1, 0)
	b.Out(2)
	b.Halt()
	p, _ := prog.New("oob", b.Items(), nil, 16)
	if res := New(p).Run(100000); res.Status != prog.StatusTrap {
		t.Fatalf("oob load: %v", res.Status)
	}

	b = isa.NewBuilder()
	b.Li(1, 7)
	b.Li(2, 0)
	b.Div(3, 1, 2)
	b.Out(3)
	b.Halt()
	p, _ = prog.New("div0", b.Items(), nil, 16)
	if res := New(p).Run(100000); res.Status != prog.StatusTrap {
		t.Fatalf("div0: %v", res.Status)
	}

	b = isa.NewBuilder()
	b.Li(1, 1<<20)
	b.Li(2, 9)
	b.Sw(2, 1, 0)
	b.Halt()
	p, _ = prog.New("oobsw", b.Items(), nil, 16)
	if res := New(p).Run(100000); res.Status != prog.StatusTrap {
		t.Fatalf("oob store: %v", res.Status)
	}

	b = isa.NewBuilder()
	b.Trapd()
	p, _ = prog.New("td", b.Items(), nil, 16)
	if res := New(p).Run(100000); res.Status != prog.StatusDetected {
		t.Fatalf("trapd: %v", res.Status)
	}
}

func TestWrongPathFaultsHarmless(t *testing.T) {
	// A taken branch guards an out-of-bounds load; speculation may execute
	// it, but it must never commit a trap.
	b := isa.NewBuilder()
	b.Li(1, 1)
	b.Li(2, 1)
	b.Li(9, 1<<20)
	b.Li(3, 0) // loop counter
	b.Label("loop")
	b.Beq(1, 2, "skip") // always taken, predictor must learn
	b.Lw(4, 9, 0)       // wrong path: OOB load
	b.Out(4)            // wrong path
	b.Label("skip")
	b.Addi(3, 3, 1)
	b.Slti(5, 3, 30)
	b.Bne(5, 0, "loop")
	b.Li(6, 77)
	b.Out(6)
	b.Halt()
	p := mustProg(t, "wrongpath", b, nil, 16)
	res := runBoth(t, p)
	if len(res.Output) != 1 || res.Output[0] != 77 {
		t.Fatalf("output %v", res.Output)
	}
}

func randomProgram(rng *rand.Rand) *isa.Builder {
	b := isa.NewBuilder()
	for r := uint8(1); r <= 8; r++ {
		b.Li(r, int32(rng.Uint32()%1000))
	}
	nBlocks := 3 + rng.Intn(4)
	for blk := 0; blk < nBlocks; blk++ {
		n := 4 + rng.Intn(10)
		for i := 0; i < n; i++ {
			rd := uint8(1 + rng.Intn(8))
			rs1 := uint8(1 + rng.Intn(8))
			rs2 := uint8(1 + rng.Intn(8))
			switch rng.Intn(9) {
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
			case 8:
				b.Mulh(rd, rs1, rs2)
			}
		}
		b.Out(uint8(1 + rng.Intn(8)))
	}
	b.Halt()
	return b
}

func TestRandomProgramsMatchISS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		bb := randomProgram(rng)
		p, err := prog.New("rand", bb.Items(), nil, 32)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.ComputeExpected(100000); err != nil {
			t.Fatal(err)
		}
		res := New(p).Run(1_000_000)
		if res.Status != prog.StatusHalted {
			t.Fatalf("prog %d: status %v after %d cycles", i, res.Status, res.Steps)
		}
		if !p.OutputsEqual(res.Output) {
			t.Fatalf("prog %d: output mismatch\n got %v\nwant %v", i, res.Output, p.Expected)
		}
	}
}

// Loops with branches and loads: superscalar throughput should exceed the
// in-order core's on independent work.
func TestIPCReasonable(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(1, 0)
	b.Li(2, 2000)
	b.Li(3, 0)
	b.Li(4, 0)
	b.Label("loop")
	b.Addi(3, 3, 2) // independent chains
	b.Addi(4, 4, 3)
	b.Addi(1, 1, 1)
	b.Bne(1, 2, "loop")
	b.Add(5, 3, 4)
	b.Out(5)
	b.Halt()
	p := mustProg(t, "ipc", b, nil, 16)
	c := New(p)
	res := c.Run(1_000_000)
	if res.Status != prog.StatusHalted {
		t.Fatalf("status %v", res.Status)
	}
	ipc := float64(c.Retired()) / float64(c.Cycles())
	if ipc < 0.8 {
		t.Fatalf("OoO IPC = %.2f; pipeline is not extracting parallelism", ipc)
	}
	t.Logf("OoO IPC = %.2f over %d cycles", ipc, c.Cycles())
}

func TestSpaceProperties(t *testing.T) {
	s := Space()
	if s.NumBits() < 8000 || s.NumBits() > 20000 {
		t.Fatalf("OoO flip-flop count %d outside the IVM-like range", s.NumBits())
	}
	for _, want := range []string{"rob.head.reg", "sched0.inst.array.reg0",
		"exec.mu0.a01", "mem.l1dcache.accessaddr0.reg", "RF0.PCreg", "regs.wb.wb.ret1"} {
		if _, ok := s.Lookup(want); !ok {
			t.Fatalf("missing field %s", want)
		}
	}
	t.Logf("OoO core: %d flip-flops in %d structures", s.NumBits(), s.NumFields())
}

func TestCommitHook(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(1, 5)
	b.Li(2, 6)
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
	c.Run(10000)
	for i, pc := range pcs {
		if int(pc) != i {
			t.Fatalf("commit order broken: %v", pcs)
		}
	}
	if len(pcs) < 4 {
		t.Fatalf("too few commits: %v", pcs)
	}

	c = New(p)
	c.SetCommitHook(func(ev sim.CommitEvent) bool { return ev.PC == 2 })
	if res := c.Run(10000); res.Status != prog.StatusDetected {
		t.Fatalf("hook detect: %v", res.Status)
	}
}

func TestInjectionProducesOutcomeDiversity(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(1, 0)
	b.Li(2, 0)
	b.Li(3, 40)
	b.Label("loop")
	b.Addi(2, 2, 1)
	b.Add(1, 1, 2)
	b.Sw(1, 0, 3)
	b.Lw(4, 0, 3)
	b.Bne(2, 3, "loop")
	b.Out(1)
	b.Out(4)
	b.Halt()
	p := mustProg(t, "inj", b, nil, 16)

	nominal := New(p).Run(100000)
	if nominal.Status != prog.StatusHalted {
		t.Fatalf("nominal: %v", nominal.Status)
	}
	nomCycles := nominal.Steps

	rng := rand.New(rand.NewSource(3))
	classes := map[string]int{}
	for k := 0; k < 300; k++ {
		c := New(p)
		cyc := rng.Intn(nomCycles)
		for i := 0; i < cyc; i++ {
			c.Step()
		}
		c.FlipBits(rng.Intn(Space().NumBits()))
		res := c.Run(2 * nomCycles)
		switch {
		case res.Status == prog.StatusHalted && p.OutputsEqual(res.Output):
			classes["vanish"]++
		case res.Status == prog.StatusHalted:
			classes["omm"]++
		case res.Status == prog.StatusTrap:
			classes["trap"]++
		case res.Status == prog.StatusMaxSteps:
			classes["hang"]++
		}
	}
	t.Logf("outcome classes over 300 injections: %v", classes)
	if classes["vanish"] == 0 {
		t.Fatal("expected some vanished errors")
	}
	if classes["omm"]+classes["trap"]+classes["hang"] == 0 {
		t.Fatal("expected some non-vanished errors")
	}
}

func TestResetReuse(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(1, 11)
	b.Out(1)
	b.Halt()
	p := mustProg(t, "r1", b, nil, 16)
	c := New(p)
	r1 := c.Run(10000)
	c.Reset(p)
	r2 := c.Run(10000)
	if r1.Status != r2.Status || len(r2.Output) != 1 || r2.Output[0] != 11 {
		t.Fatalf("reset run differs: %v vs %v", r1, r2)
	}
}

func BenchmarkOoOCycles(b *testing.B) {
	bb := isa.NewBuilder()
	bb.Li(1, 0)
	bb.Li(2, 1000000)
	bb.Li(3, 0)
	bb.Label("loop")
	bb.Addi(3, 3, 2)
	bb.Addi(1, 1, 1)
	bb.Bne(1, 2, "loop")
	bb.Out(3)
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
