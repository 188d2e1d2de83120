package parity

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"clear/internal/ff"
	"clear/internal/ino"
	"clear/internal/layout"
	"clear/internal/ooo"
)

func setup() (space *ff.Space, pl *layout.Placement, bits []int, vuln []float64) {
	s := ino.Space()
	p := layout.Place(s, layout.InOProfile())
	b := make([]int, s.NumBits())
	v := make([]float64, s.NumBits())
	for i := range b {
		b[i] = i
		v[i] = float64((i*2654435761)%997) / 997
	}
	return s, p, b, v
}

func TestGroupingCoversAllBitsExactlyOnce(t *testing.T) {
	space, pl, bits, vuln := setup()
	for _, h := range []Heuristic{GroupSizeH, VulnerabilityH, LocalityH, TimingH, OptimizedH} {
		g := Group(h, 16, space, pl, vuln, bits)
		seen := map[int]int{}
		for _, grp := range g.Groups {
			for _, b := range grp {
				seen[b]++
			}
		}
		if len(seen) != len(bits) {
			t.Fatalf("%v: covered %d of %d bits", h, len(seen), len(bits))
		}
		for b, n := range seen {
			if n != 1 {
				t.Fatalf("%v: bit %d in %d groups", h, b, n)
			}
		}
		if len(g.Pipelined) != len(g.Groups) {
			t.Fatalf("%v: pipelined flags mismatch", h)
		}
	}
}

func TestGroupSizes(t *testing.T) {
	space, pl, bits, vuln := setup()
	for _, size := range []int{4, 8, 16, 32} {
		g := Group(VulnerabilityH, size, space, pl, vuln, bits)
		for i, grp := range g.Groups {
			if len(grp) > size {
				t.Fatalf("size %d: group %d has %d members", size, i, len(grp))
			}
		}
	}
}

func TestVulnerabilityOrdering(t *testing.T) {
	space, pl, bits, vuln := setup()
	g := Group(VulnerabilityH, 16, space, pl, vuln, bits)
	// the first group must contain strictly higher-vulnerability bits than
	// the last full group's minimum
	first := g.Groups[0]
	last := g.Groups[len(g.Groups)-2]
	minFirst, maxLast := 2.0, -1.0
	for _, b := range first {
		if vuln[b] < minFirst {
			minFirst = vuln[b]
		}
	}
	for _, b := range last {
		if vuln[b] > maxLast {
			maxLast = vuln[b]
		}
	}
	if minFirst < maxLast {
		t.Fatalf("vulnerability sort broken: first-group min %.3f < last-group max %.3f", minFirst, maxLast)
	}
}

func TestLocalityOrdersByUnit(t *testing.T) {
	space, pl, bits, _ := setup()
	g := Group(LocalityH, 16, space, pl, nil, bits)
	// groups are full-size (amortized) except the final remainder ...
	for i, grp := range g.Groups[:len(g.Groups)-1] {
		if len(grp) != 16 {
			t.Fatalf("group %d has %d members; locality must fill groups", i, len(grp))
		}
	}
	// ... and most groups stay within one unit (cross-unit merges happen
	// only at unit boundaries)
	mixed := 0
	for _, grp := range g.Groups {
		u := space.UnitOf(grp[0])
		for _, b := range grp {
			if space.UnitOf(b) != u {
				mixed++
				break
			}
		}
	}
	if mixed > len(g.Groups)/2 {
		t.Fatalf("%d of %d locality groups cross units", mixed, len(g.Groups))
	}
}

func TestOptimizedUsesBothModes(t *testing.T) {
	space, pl, bits, _ := setup()
	g := Group(OptimizedH, 16, space, pl, nil, bits)
	unp, pip := 0, 0
	for i, grp := range g.Groups {
		if g.Pipelined[i] {
			pip++
			if len(grp) > 16 {
				t.Fatalf("pipelined group of %d (>16)", len(grp))
			}
		} else {
			unp++
			if len(grp) > 32 {
				t.Fatalf("unpipelined group of %d (>32)", len(grp))
			}
		}
	}
	if unp == 0 || pip == 0 {
		t.Fatalf("Fig 3 heuristic should mix modes: %d unpipelined, %d pipelined", unp, pip)
	}
}

func TestTimingGroupsShareSlackClass(t *testing.T) {
	space, pl, bits, _ := setup()
	g := Group(TimingH, 16, space, pl, nil, bits)
	// slack within the first group must be <= slack in the last group
	maxFirst, minLast := -1, 1<<30
	for _, b := range g.Groups[0] {
		if pl.Slack[b] > maxFirst {
			maxFirst = pl.Slack[b]
		}
	}
	for _, b := range g.Groups[len(g.Groups)-1] {
		if pl.Slack[b] < minLast {
			minLast = pl.Slack[b]
		}
	}
	if maxFirst > minLast {
		t.Fatalf("timing sort broken: %d > %d", maxFirst, minLast)
	}
}

func TestCostAccessors(t *testing.T) {
	space, pl, bits, _ := setup()
	g := Group(LocalityH, 16, space, pl, nil, bits)
	if g.NumXORs() <= len(bits) {
		t.Fatalf("XOR count %d implausibly low", g.NumXORs())
	}
	if g.NumGroups() == 0 || g.ConstGates() != g.NumGroups()*groupConstGates {
		t.Fatal("group gate accounting broken")
	}
	if g.ErrorFFs() != g.NumGroups() {
		t.Fatal("error FF accounting broken")
	}
	if g.WireLength(pl) <= 0 {
		t.Fatal("no wire length")
	}
	if len(g.Bits()) != len(bits) {
		t.Fatal("Bits() lost members")
	}
	fp := g.ForcePipelined()
	if fp.NumPipelineFFs() < g.NumPipelineFFs() {
		t.Fatal("ForcePipelined reduced pipeline FFs")
	}
	for _, p := range fp.Pipelined {
		if !p {
			t.Fatal("ForcePipelined left an unpipelined group")
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	space, pl, _, _ := setup()
	g := Group(GroupSizeH, 16, space, pl, nil, nil)
	if len(g.Groups) != 0 || g.NumXORs() != 0 || g.NumPipelineFFs() != 0 {
		t.Fatal("empty grouping should be free")
	}
	g = Group(GroupSizeH, 16, space, pl, nil, []int{5})
	if len(g.Groups) != 1 || g.NumXORs() == 0 {
		t.Fatal("singleton group mishandled")
	}
}

func TestTreeDepth(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 4: 3, 16: 5, 32: 6}
	for size, want := range cases {
		if got := treeDepth(size); got != want {
			t.Errorf("treeDepth(%d) = %d, want %d", size, got, want)
		}
	}
}

// localityGroupsRef is the map-keyed form of localityGroups: bits bucketed
// by unit name in order of first appearance, then chunked.
func localityGroupsRef(space *ff.Space, bits []int, size int) [][]int {
	byUnit := map[string][]int{}
	var order []string
	for _, b := range bits {
		u := space.UnitOf(b)
		if _, ok := byUnit[u]; !ok {
			order = append(order, u)
		}
		byUnit[u] = append(byUnit[u], b)
	}
	var seq []int
	for _, u := range order {
		seq = append(seq, byUnit[u]...)
	}
	return chunk(seq, size)
}

// TestLocalityGroupsMatchesReference compares localityGroups with its
// map-keyed reference on both cores' spaces. Both spaces keep each unit's
// flip-flops contiguous, so index-sorted inputs never exercise the order
// of first appearance; shuffled full and partial bit lists do.
func TestLocalityGroupsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for _, space := range []*ff.Space{ino.Space(), ooo.Space()} {
		n := space.NumBits()
		for trial := 0; trial < 20; trial++ {
			bits := rng.Perm(n)
			switch trial % 4 {
			case 1:
				bits = bits[:n/3]
			case 2:
				bits = bits[:rng.IntN(64)]
			case 3:
				bits = nil
				for b := 0; b < n; b++ {
					if rng.IntN(5) == 0 {
						bits = append(bits, b) // sorted subset
					}
				}
			}
			for _, size := range []int{16, 32} {
				got, want := localityGroups(space, bits, size), localityGroupsRef(space, bits, size)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%d-bit space, trial %d, %d bits, size %d: groups differ from the reference",
						n, trial, len(bits), size)
				}
			}
		}
	}
}
