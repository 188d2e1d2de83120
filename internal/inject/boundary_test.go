package inject

import (
	"testing"

	"clear/internal/bench"
	"clear/internal/prog"
	"clear/internal/sim"
)

// TestMaskedMatchClosure checks the boundary prune against running on. A
// warm tail ends a run Vanished at the first checkpoint it Matches, and
// Matches sets aside the retired counter and flip-flops inert, or dead in
// the checkpoint's state. Every strike here that first matches a boundary
// only under that mask — its core still differs from the checkpoint's —
// is run on with no pruning, and must halt exactly when the fault-free
// run does, with the golden output. Such strikes must occur on both cores,
// so the test cannot pass vacuously.
func TestMaskedMatchClosure(t *testing.T) {
	for _, tc := range []struct {
		kind   CoreKind
		bench  string
		stride int
	}{
		{OoO, "inner_product", 3},
		{OoO, "mcf", 7},
		{InO, "gzip", 1},
	} {
		p := bench.ByName(tc.bench).MustProgram()
		ref, nomRes, err := BuildReference(tc.kind, p, CheckpointInterval, nomBudget)
		if err != nil {
			t.Fatal(err)
		}
		nom := nomRes.Steps
		lane, probe := NewCore(tc.kind, p), NewCore(tc.kind, p).(sim.GangCore)
		exact, masked := 0, 0
		for bit := 0; bit < SpaceBits(tc.kind); bit += tc.stride {
			cycle := int(splitmix64(0xC1EA5^uint64(bit)<<20) % uint64(nom))
			ref.restore(lane, nil, cycle/ref.Interval)
			for lane.Cycles() < cycle {
				lane.Step()
			}
			lane.FlipBits(bit)
			for ; !lane.Done() && lane.Cycles() < HangFactor*nom; lane.Step() {
				t0 := lane.Cycles()
				i := t0 / ref.Interval
				if t0%ref.Interval != 0 || i >= len(ref.Ckpts) || !lane.Matches(ref.Ckpts[i]) {
					continue
				}
				probe.Restore(ref.Ckpts[i])
				if probe.DiffFrom(lane) == 0 && probe.Retired() == lane.Retired() {
					exact++
					break
				}
				masked++
				res := lane.Run(HangFactor * nom)
				if res.Status != prog.StatusHalted || res.Steps != nom || !p.OutputsEqual(res.Output) {
					t.Fatalf("%v/%s: bit %d struck at cycle %d matches checkpoint %d only under the mask, "+
						"then ends %v at cycle %d (nominal %d), golden output %v",
						tc.kind, tc.bench, bit, cycle, i, res.Status, res.Steps, nom, p.OutputsEqual(res.Output))
				}
				break
			}
		}
		if masked == 0 {
			t.Fatalf("%v/%s: no strike matched a boundary only under the mask (%d matched exactly); the test lost its edge",
				tc.kind, tc.bench, exact)
		}
		t.Logf("%v/%s: %d strikes first matched a boundary under the mask, %d exactly", tc.kind, tc.bench, masked, exact)
	}
}
