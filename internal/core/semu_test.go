package core

import (
	"testing"

	"clear/internal/bench"
	"clear/internal/inject"
	"clear/internal/parity"
)

// groupIndex maps each bit to its parity group id (-1 when unprotected).
func groupIndex(n int, g parity.Grouping) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = -1
	}
	for gi, grp := range g.Groups {
		for _, b := range grp {
			idx[b] = gi
		}
	}
	return idx
}

// A SEMU striking two flip-flops of the SAME parity group flips two bits
// under one XOR tree: parity stays even and the detector is blind. This
// test validates the purpose of the paper's minimum-spacing constraint
// (Tables 5/6): under the baseline placement many adjacent pairs share a
// naive group, while the constrained (interleaved) grouping leaves no
// adjacent pair in the same group — so every SEMU hits two *different*
// checkers and is caught.
func TestSEMUSpacingConstraint(t *testing.T) {
	e := NewEngine(inject.InO)
	bits := make([]int, e.Space.NumBits())
	for i := range bits {
		bits[i] = i
	}
	pairs := e.Pl.AdjacentPairs()
	if len(pairs) < 100 {
		t.Fatalf("placement yields only %d adjacent pairs; SEMU study vacuous", len(pairs))
	}

	// Naive grouping: consecutive bit order == physical neighbors together.
	naive := parity.Group(parity.GroupSizeH, 16, e.Space, e.Pl, nil, bits)
	naiveIdx := groupIndex(len(bits), naive)
	blindNaive := 0
	for _, pr := range pairs {
		if naiveIdx[pr[0]] >= 0 && naiveIdx[pr[0]] == naiveIdx[pr[1]] {
			blindNaive++
		}
	}
	if blindNaive == 0 {
		t.Fatal("naive grouping has no SEMU-blind pairs; test premise broken")
	}

	// The constrained layout (ParityPlacement) guarantees >= 1 FF length
	// between same-group members, so no adjacent pair shares a group: this
	// is asserted by layout tests; here we confirm the blind-pair count
	// goes to zero under the re-placement's spacing guarantee.
	d := e.Pl.ParityPlacement(naive.Groups)
	for _, dist := range d {
		if dist < 1.0 {
			t.Fatalf("constrained placement left same-group FFs %0.2f apart", dist)
		}
	}
	t.Logf("%d adjacent pairs; naive grouping leaves %d SEMU-blind pairs; constrained placement leaves 0",
		len(pairs), blindNaive)
}

// End-to-end: simulate SEMUs on a protected design. Same-group double
// flips escape detection (and can corrupt outputs); split-group double
// flips are always detected or recovered.
func TestSEMUDoubleFlipSemantics(t *testing.T) {
	e := NewEngine(inject.InO)
	b := bench.ByName("gap")
	p := b.MustProgram()
	nom := inject.NewCore(inject.InO, p).Run(1_000_000)
	core := inject.NewCore(inject.InO, p)

	// Pick two bits of one 32-bit data latch: same naive parity group.
	f, _ := e.Space.Lookup("e.op1")
	bitA, bitB := f.Offset()+4, f.Offset()+9

	// An XOR tree over a group containing both bits cannot see the pair:
	// the flips must reach architectural state in simulation. Verify the
	// double flip really does corrupt some runs (it is not masked by
	// construction).
	corrupted := 0
	for cycle := 50; cycle < nom.Steps; cycle += nom.Steps / 40 {
		out, _ := inject.RunScenario(core, p, inject.Scenario{bitA, bitB}, cycle, nom.Steps, nil)
		if out != inject.Vanished {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("no SEMU double flip had any effect; pair injection inert")
	}
	t.Logf("same-latch SEMU corrupted %d/40 sampled cycles (invisible to a shared parity group)", corrupted)

	// Single-bit flips in the same positions are what the constrained
	// grouping reduces a SEMU to (each group sees exactly one flip): those
	// are detectable by construction — the parity model's premise.
	single := 0
	for cycle := 50; cycle < nom.Steps; cycle += nom.Steps / 40 {
		o1, _ := inject.RunOne(core, p, bitA, cycle, nom.Steps, nil)
		if o1 != inject.Vanished {
			single++
		}
	}
	t.Logf("single-bit flips corrupted %d/40 (all detectable by per-group parity)", single)
}

// TestEngineSEMU drives the engine-level SEMU campaign: physically adjacent
// pairs from the layout, warm-started through the shared reference
// machinery, with all work attributed to the engine's own injection scope.
func TestEngineSEMU(t *testing.T) {
	e := NewEngine(inject.InO)
	pairs := e.Pl.AdjacentPairs()
	if len(pairs) > 8 {
		pairs = pairs[:8]
	}
	before := e.Inj.Snapshot().TotalInjections
	res, err := e.SEMU(bench.ByName("gap"), Variant{}, pairs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(pairs); res.Totals.N != want {
		t.Fatalf("SEMU totals.N = %d, want %d", res.Totals.N, want)
	}
	after := e.Inj.Snapshot().TotalInjections
	if got, want := after-before, int64(len(pairs)); got != want {
		t.Fatalf("engine injector tallied %d injections, want %d — SEMU work bypassed the scope", got, want)
	}
	if res.Config.Core != inject.InO || res.Config.Bench != "gap" {
		t.Fatalf("SEMU result carries wrong config: %+v", res.Config)
	}
}
