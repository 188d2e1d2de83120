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
			o2, d2 := in.runWarm(nil, warm, nil, p, ref, sc, cycle, nom)
			if o1 != o2 || d1 != d2 {
				t.Fatalf("%v bits=%v cycle=%d: from-reset (%v,%d) vs checkpointed (%v,%d)",
					kind, sc, cycle, o1, d1, o2, d2)
			}
		}
	}
}
