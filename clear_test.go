package clear

import (
	"math"
	"testing"
)

func TestPublicAPISurface(t *testing.T) {
	if len(Benchmarks()) != 18 {
		t.Fatalf("Benchmarks() = %d", len(Benchmarks()))
	}
	if BenchmarkByName("gzip") == nil || BenchmarkByName("none") != nil {
		t.Fatal("BenchmarkByName broken")
	}
	if got := len(Enumerate(InO)) + len(Enumerate(OoO)); got != 586 {
		t.Fatalf("Enumerate total %d, want 586", got)
	}
	if len(Experiments()) != 33 {
		t.Fatalf("Experiments() = %d, want 33", len(Experiments()))
	}
	if _, err := RunExperiment("no-such-id"); err == nil {
		t.Fatal("RunExperiment should reject unknown ids")
	}
}

func TestPublicInjection(t *testing.T) {
	b := BenchmarkByName("inner_product")
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCore(InO, p)
	res := c.Run(1_000_000)
	if len(res.Output) == 0 {
		t.Fatal("no output")
	}
	nom := res.Steps
	// injecting into a vanish-prone status register mostly vanishes;
	// injecting into the operand latch does not always
	seen := map[InjectionOutcome]bool{}
	for cycle := 10; cycle < nom; cycle += nom / 20 {
		for bit := 0; bit < c.SpaceOf().NumBits(); bit += 97 {
			out, err := InjectOne(InO, p, bit, cycle, nom)
			if err != nil {
				t.Fatal(err)
			}
			seen[out] = true
		}
		if len(seen) >= 3 {
			break
		}
	}
	if !seen[Vanished] {
		t.Fatal("no vanished outcomes at all")
	}
	if len(seen) < 2 {
		t.Fatal("injection produced only one outcome class")
	}
}

// TestInjectOneRejectsOutOfRange pins InjectOne's input checks at the edges
// of the in-order core's 1,127-bit flip-flop space, which packs into 18
// 64-bit words: the last flip-flop is accepted, while bits past the space
// — the word padding up to 1151 and the first bit beyond it — are rejected
// instead of flipping padding or panicking, as are -1, a negative cycle and
// a non-positive nominal length.
func TestInjectOneRejectsOutOfRange(t *testing.T) {
	p, err := BenchmarkByName("inner_product").Program()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCore(InO, p)
	nom := c.Run(1_000_000).Steps
	if n := c.SpaceOf().NumBits(); n != 1127 {
		t.Fatalf("in-order space has %d flip-flops, want 1127", n)
	}
	if _, err := InjectOne(InO, p, 1126, nom/2, nom); err != nil {
		t.Fatalf("last flip-flop rejected: %v", err)
	}
	for _, bit := range []int{-1, 1127, 1151, 1152} {
		if _, err := InjectOne(InO, p, bit, nom/2, nom); err == nil {
			t.Errorf("bit %d accepted", bit)
		}
	}
	if _, err := InjectOne(InO, p, 0, -1, nom); err == nil {
		t.Error("negative cycle accepted")
	}
	for _, n := range []int{0, -1} {
		if _, err := InjectOne(InO, p, 0, 0, n); err == nil {
			t.Errorf("nomCycles %d accepted", n)
		}
	}
}

func TestPublicComboEval(t *testing.T) {
	t.Setenv("CLEAR_CACHE_DIR", t.TempDir())
	eng := NewEngine(InO)
	eng.SamplesBase, eng.SamplesTech = 1, 1
	combo := Combo{DICE: true, Parity: true, Recovery: RecFlush}
	out, err := eng.EvalCombo(BenchmarkByName("inner_product"), combo, SDC, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !out.TargetMet || out.Cost.Energy() <= 0 {
		t.Fatalf("outcome %+v", out)
	}
	if math.IsNaN(out.SDCImp) {
		t.Fatal("NaN improvement")
	}
}

func TestRunExperimentCampaignFree(t *testing.T) {
	out, err := RunExperiment("table4")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < 100 {
		t.Fatalf("table4 output too small: %q", out)
	}
}
