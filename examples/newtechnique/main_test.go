package main

import (
	"fmt"
	"hash/fnv"
	"testing"

	"clear"
)

// TestFlowGuardPinned pins the example's third-party checker to the
// results it produced when its campaigns replayed every injection from
// reset. flowGuard's checker saves its state, so its campaigns — alone or
// chained with DFC — run on the gang engine, and each must both keep those
// exact numbers and show gang-engine work: injections pruned on
// reconvergence and strikes decided inert at their fork.
func TestFlowGuardPinned(t *testing.T) {
	t.Setenv("CLEAR_CACHE_DIR", t.TempDir())
	fg := flowGuard{clear.TechniqueInfo{TechName: "FlowGuard", TechLayer: clear.LayerArchitecture}}
	if err := clear.RegisterTechnique(fg); err != nil {
		t.Fatal(err)
	}
	defer clear.UnregisterTechnique(fg.Name())
	eng := clear.NewEngine(clear.InO)
	eng.SamplesBase, eng.SamplesTech = 1, 1
	b := clear.BenchmarkByName("inner_product")
	for _, tc := range []struct {
		v    clear.Variant
		want string
	}{
		{clear.Variant{Extra: []string{fg.Name()}}, "{N:1127 Vanished:866 OMM:84 UT:59 Hang:0 ED:118} lat=449/118 ff=59da8dafde1b70fc"},
		{clear.Variant{DFC: true, Extra: []string{fg.Name()}}, "{N:1127 Vanished:802 OMM:45 UT:50 Hang:0 ED:230} lat=1161/230 ff=60e0608f407f3f8c"},
	} {
		before := eng.Inj.Snapshot()
		r, err := eng.Campaign(b, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, st := range r.PerFF {
			fmt.Fprintf(h, "%d,%d,%d,%d,%d;", st.N, st.OMM, st.UT, st.Hang, st.ED)
		}
		got := fmt.Sprintf("%+v lat=%d/%d ff=%016x", r.Totals, r.DetLatSum, r.DetN, h.Sum64())
		if got != tc.want {
			t.Errorf("%s: got %s\nwant %s", tc.v.Tag(), got, tc.want)
		}
		after := eng.Inj.Snapshot()
		pruned := after.PrunedInjections - before.PrunedInjections
		inert := after.InertInjections - before.InertInjections
		if pruned <= 0 || inert <= 0 {
			t.Errorf("%s: %d injections pruned and %d decided inert; a campaign on the gang engine does both",
				tc.v.Tag(), pruned, inert)
		}
		t.Logf("%s: %d pruned, %d inert", tc.v.Tag(), pruned, inert)
	}
}
