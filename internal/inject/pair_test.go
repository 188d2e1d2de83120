package inject

import (
	"testing"

	"clear/internal/prog"
)

// TestPairWarmColdEquivalence drives a randomized grid of (bitA, bitB,
// cycle) double-flip injection points through both the cold and the warm
// body on both cores and requires identical outcome classifications — the
// regression test for the SEMU cold-start bug.
func TestPairWarmColdEquivalence(t *testing.T) {
	p := tinyProgram(t)
	for _, kind := range []CoreKind{InO, OoO} {
		ref, nomRes, err := BuildReference(kind, p, 16, 100000)
		if err != nil {
			t.Fatalf("%v BuildReference: %v", kind, err)
		}
		if nomRes.Status != prog.StatusHalted {
			t.Fatalf("%v nominal run failed: %v", kind, nomRes.Status)
		}
		nom := nomRes.Steps
		if len(ref.Ckpts) < 2 {
			t.Fatalf("%v: want several checkpoints, got %d (nominal %d cycles)",
				kind, len(ref.Ckpts), nom)
		}
		cold := NewCore(kind, p)
		warm := NewCore(kind, p)
		in := NewInjector()
		nBits := SpaceBits(kind)
		for s := 0; s < 200; s++ {
			h := splitmix64(uint64(s) ^ 0x5EED)
			sc := Scenario{int(h % uint64(nBits)), int((h >> 20) % uint64(nBits))}
			cycle := int((h >> 40) % uint64(nom))
			o1, d1 := RunScenario(cold, p, sc, cycle, nom, nil)
			o2, d2 := in.runScenarioFrom(warm, nil, p, ref, sc, cycle, nom, nil)
			if o1 != o2 || d1 != d2 {
				t.Fatalf("%v bits=%v cycle=%d: from-reset (%v,%d) vs checkpointed (%v,%d)",
					kind, sc, cycle, o1, d1, o2, d2)
			}
		}
		// hook-carrying pair injections must keep the exact from-reset path
		// (stateful hooks cannot warm-start) and still agree
		for s := 0; s < 40; s++ {
			h := splitmix64(uint64(s) ^ 0xD0B1E)
			sc := Scenario{int(h % uint64(nBits)), int((h >> 20) % uint64(nBits))}
			cycle := int((h >> 40) % uint64(nom))
			hf := boundsHook(1 << 20)
			o1, d1 := RunScenario(cold, p, sc, cycle, nom, hf)
			o2, d2 := in.runScenarioFrom(warm, nil, p, ref, sc, cycle, nom, hf)
			if o1 != o2 || d1 != d2 {
				t.Fatalf("%v hooked bits=%v cycle=%d: (%v,%d) vs (%v,%d)",
					kind, sc, cycle, o1, d1, o2, d2)
			}
		}
	}
}

// TestRunPairsCampaign covers the SEMU campaign loop: per-pair tallies sum
// to the totals, every pair gets exactly SamplesPerPair injections, and a
// repeated run with the same seed is identical (determinism across the
// worker pool).
func TestRunPairsCampaign(t *testing.T) {
	p := tinyProgram(t)
	for _, kind := range []CoreKind{InO, OoO} {
		nBits := SpaceBits(kind)
		pairs := [][2]int{{0, 1}, {1, 2}, {5, nBits - 1}, {nBits - 2, nBits - 1}}
		cfg := PairConfig{Core: kind, Bench: "tiny", SamplesPerPair: 3, Seed: 0x5E30}
		res, err := NewInjector().RunPairs(cfg, p, pairs, nil)
		if err != nil {
			t.Fatalf("%v RunPairs: %v", kind, err)
		}
		if len(res.PerPair) != len(pairs) {
			t.Fatalf("%v: PerPair length %d, want %d", kind, len(res.PerPair), len(pairs))
		}
		var sum Counts
		for i, c := range res.PerPair {
			if c.N != cfg.SamplesPerPair {
				t.Errorf("%v pair %d: %d samples, want %d", kind, i, c.N, cfg.SamplesPerPair)
			}
			sum.Merge(c)
		}
		if sum != res.Totals {
			t.Fatalf("%v: per-pair sum %+v != totals %+v", kind, sum, res.Totals)
		}
		if want := len(pairs) * cfg.SamplesPerPair; res.Totals.N != want {
			t.Fatalf("%v: totals.N = %d, want %d", kind, res.Totals.N, want)
		}
		again, err := NewInjector().RunPairs(cfg, p, pairs, nil)
		if err != nil {
			t.Fatalf("%v RunPairs repeat: %v", kind, err)
		}
		if again.Totals != res.Totals || again.NomCycles != res.NomCycles ||
			len(again.PerPair) != len(res.PerPair) {
			t.Fatalf("%v: repeated campaign differs", kind)
		}
		for i := range again.PerPair {
			if again.PerPair[i] != res.PerPair[i] {
				t.Fatalf("%v: repeated campaign pair %d differs: %+v vs %+v",
					kind, i, again.PerPair[i], res.PerPair[i])
			}
		}
	}
}

// TestRunPairsValidation pins the campaign's input checking: missing golden
// output, out-of-range pair bits, and an out-of-range sample count must all
// fail up front rather than mid-campaign.
func TestRunPairsValidation(t *testing.T) {
	p := tinyProgram(t)
	noGolden := &prog.Program{Name: "nogolden", MemWords: 16}
	if _, err := NewInjector().RunPairs(PairConfig{Core: InO, SamplesPerPair: 1}, noGolden, nil, nil); err == nil {
		t.Error("RunPairs accepted a program with no golden output")
	}
	if _, err := NewInjector().RunPairs(PairConfig{Core: InO, SamplesPerPair: 1}, p,
		[][2]int{{0, SpaceBits(InO)}}, nil); err == nil {
		t.Error("RunPairs accepted an out-of-range pair bit")
	}
	if _, err := NewInjector().RunPairs(PairConfig{Core: InO, SamplesPerPair: -1}, p, nil, nil); err == nil {
		t.Error("RunPairs accepted a negative sample count")
	}
}

// TestInjectorScopedPairCounters extends the scoped-injector coverage to
// pair injections: a RunPairs campaign must tally injections and outcomes
// on the owning Injector, and only there.
func TestInjectorScopedPairCounters(t *testing.T) {
	p := tinyProgram(t)
	in, other := NewInjector(), NewInjector()
	pairs := [][2]int{{0, 1}, {2, 3}}
	cfg := PairConfig{Core: InO, Bench: "tiny", SamplesPerPair: 2, Seed: 7}
	res, err := in.RunPairs(cfg, p, pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantInj := int64(len(pairs) * cfg.SamplesPerPair)
	if got := in.Snapshot().TotalInjections; got != wantInj {
		t.Fatalf("after RunPairs: TotalInjections = %d, want %d", got, wantInj)
	}
	if got, want := in.outcomeTotal(), int64(res.Totals.N); got != want {
		t.Fatalf("after RunPairs: outcome tallies sum to %d, want %d", got, want)
	}
	if got := other.Snapshot().TotalInjections + other.outcomeTotal(); got != 0 {
		t.Fatalf("RunPairs leaked %d tallies into an unrelated injector", got)
	}
}

// outcomeTotal sums the per-outcome counters — test-only visibility into
// the batched outcome tallies.
func (in *Injector) outcomeTotal() int64 {
	return in.outVanished.Value() + in.outOMM.Value() + in.outUT.Value() +
		in.outHang.Value() + in.outED.Value()
}
