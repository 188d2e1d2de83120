// Package parity implements logic-level parity checking (paper Sec 2.4,
// Fig 2/3, Table 7): XOR-tree predictor/checker pairs over groups of
// flip-flops, with the grouping heuristics the paper compares (group-size,
// vulnerability, locality, timing, and the optimized heuristic) and
// automatic pipelining of the predictor tree when timing slack is
// insufficient.
package parity

import (
	"sort"

	"clear/internal/ff"
	"clear/internal/layout"
)

// Heuristic selects a flip-flop grouping strategy.
type Heuristic int

// Grouping heuristics evaluated in the paper (Table 7).
const (
	GroupSizeH Heuristic = iota
	VulnerabilityH
	LocalityH
	TimingH
	OptimizedH
)

func (h Heuristic) String() string {
	switch h {
	case GroupSizeH:
		return "group-size"
	case VulnerabilityH:
		return "vulnerability"
	case LocalityH:
		return "locality"
	case TimingH:
		return "timing"
	case OptimizedH:
		return "optimized"
	}
	return "?"
}

// Grouping is a concrete parity implementation plan: which flip-flops are
// checked together, and which groups need a pipelined predictor tree.
type Grouping struct {
	Groups    [][]int
	Pipelined []bool
}

// NumPipelineFFs returns the pipeline flip-flops added by pipelined groups
// (Fig 2): roughly one per predictor subtree plus the staged parity bit.
func (g Grouping) NumPipelineFFs() int {
	n := 0
	for i, grp := range g.Groups {
		if g.Pipelined[i] {
			n += pipelineFFs(len(grp))
		}
	}
	return n
}

func pipelineFFs(groupSize int) int {
	n := groupSize/8 + 2
	return n
}

// treeDepth returns the XOR-tree depth (gate delays) for a group size.
func treeDepth(groupSize int) int {
	d := 0
	for s := 1; s < groupSize; s <<= 1 {
		d++
	}
	return d + 1 // +1 for the final compare
}

// slackMargin is the extra slack (gate delays) required beyond the tree
// depth for an unpipelined implementation.
const slackMargin = 1

// needsPipeline reports whether a group must pipeline its predictor.
func needsPipeline(pl *layout.Placement, group []int) bool {
	depth := treeDepth(len(group))
	for _, b := range group {
		if pl.Slack[b] < depth+slackMargin {
			return true
		}
	}
	return false
}

func chunk(bits []int, size int) [][]int {
	var groups [][]int
	for lo := 0; lo < len(bits); lo += size {
		hi := lo + size
		if hi > len(bits) {
			hi = len(bits)
		}
		g := make([]int, hi-lo)
		copy(g, bits[lo:hi])
		groups = append(groups, g)
	}
	return groups
}

// Group forms parity groups over the given flip-flops using heuristic h
// with the given nominal group size (ignored by OptimizedH, which picks
// 32-bit unpipelined or 16-bit pipelined groups per Fig 3). vuln gives the
// per-flip-flop fraction of errors causing SDC or DUE (used by
// VulnerabilityH); it may be nil for other heuristics.
func Group(h Heuristic, size int, space *ff.Space, pl *layout.Placement, vuln []float64, bits []int) Grouping {
	sorted := make([]int, len(bits))
	copy(sorted, bits)
	var groups [][]int
	switch h {
	case GroupSizeH:
		sort.Ints(sorted)
		groups = chunk(sorted, size)
	case VulnerabilityH:
		sort.SliceStable(sorted, func(i, j int) bool {
			return vuln[sorted[i]] > vuln[sorted[j]]
		})
		groups = chunk(sorted, size)
	case LocalityH:
		groups = localityGroups(space, sorted, size)
	case TimingH:
		sort.SliceStable(sorted, func(i, j int) bool {
			return pl.Slack[sorted[i]] < pl.Slack[sorted[j]]
		})
		groups = chunk(sorted, size)
	case OptimizedH:
		return optimized(space, pl, sorted)
	}
	g := Grouping{Groups: groups, Pipelined: make([]bool, len(groups))}
	for i, grp := range groups {
		g.Pipelined[i] = needsPipeline(pl, grp)
	}
	return g
}

// Interleave forms parity groups by round-robin dealing over the
// index-sorted flip-flops: the i-th bit lands in group i%n, where n is the
// group count needed for the nominal size. The placement assigns
// consecutive bit indices to adjacent sites, so index order is placement
// order. Physically adjacent flip-flops
// therefore land in different parity groups, which is the classic defense
// against spatial multi-bit upsets — a cluster of flips from one particle
// intersects each group at most once (odd overlap), so every affected
// group's XOR tree fires, whereas contiguous grouping can take an even
// number of hits in one group and cancel. The cost is wire length: each
// group spans the whole sequence instead of one neighbourhood.
func Interleave(bits []int, size int) Grouping {
	sorted := make([]int, len(bits))
	copy(sorted, bits)
	sort.Ints(sorted)
	if size < 1 {
		size = 1
	}
	n := (len(sorted) + size - 1) / size
	if n == 0 {
		return Grouping{}
	}
	groups := make([][]int, n)
	for i, b := range sorted {
		groups[i%n] = append(groups[i%n], b)
	}
	return Grouping{Groups: groups, Pipelined: make([]bool, n)}
}

// localityGroups orders flip-flops by functional unit and chunks the
// ordered sequence into full-size groups. Groups prefer to stay within one
// unit (minimal predictor/checker wiring) but small per-unit remainders
// merge with the next unit rather than forming under-amortized fragments —
// the cross-unit wiring penalty is charged by the wire-length model.
//
// Units keep their order of first appearance in bits and bits keep their
// order within a unit. A bit finds its unit's bucket through the space's
// per-bit unit index (ff.Space.UnitIndex), built once per space.
func localityGroups(space *ff.Space, bits []int, size int) [][]int {
	slot := make([]int, space.NumUnits()) // a unit's bucket + 1; 0 until it appears
	var counts []int
	bucket := make([]int, len(bits))
	for i, b := range bits {
		u := space.UnitIndex(b)
		if slot[u] == 0 {
			counts = append(counts, 0)
			slot[u] = len(counts)
		}
		bucket[i] = slot[u] - 1
		counts[bucket[i]]++
	}
	// counts becomes each bucket's next write position in seq.
	next := 0
	for k, n := range counts {
		counts[k] = next
		next += n
	}
	seq := make([]int, len(bits))
	for i, b := range bits {
		seq[counts[bucket[i]]] = b
		counts[bucket[i]]++
	}
	return chunk(seq, size)
}

// optimized implements the Fig 3 heuristic: flip-flops with enough slack for
// an unpipelined 32-bit predictor tree form 32-bit locality groups; the rest
// form 16-bit pipelined locality groups.
func optimized(space *ff.Space, pl *layout.Placement, bits []int) Grouping {
	need := treeDepth(32) + slackMargin
	var fast, slow []int
	for _, b := range bits {
		if pl.Slack[b] >= need {
			fast = append(fast, b)
		} else {
			slow = append(slow, b)
		}
	}
	var g Grouping
	for _, grp := range localityGroups(space, fast, 32) {
		g.Groups = append(g.Groups, grp)
		g.Pipelined = append(g.Pipelined, false)
	}
	for _, grp := range localityGroups(space, slow, 16) {
		g.Groups = append(g.Groups, grp)
		g.Pipelined = append(g.Pipelined, true)
	}
	return g
}

// NumXORs returns the total XOR gates across all groups: predictor tree
// (g-1) + checker tree (g-1) + final compare.
func (g Grouping) NumXORs() int {
	n := 0
	for _, grp := range g.Groups {
		if len(grp) > 1 {
			n += 2*(len(grp)-1) + 1
		} else if len(grp) == 1 {
			n += 2
		}
	}
	return n
}

// groupConstGates is the per-group fixed control overhead (error latch
// driver, enable gating): the cost component that larger groups amortize.
const groupConstGates = 3

// NumGroups returns the number of non-empty groups.
func (g Grouping) NumGroups() int {
	n := 0
	for _, grp := range g.Groups {
		if len(grp) > 0 {
			n++
		}
	}
	return n
}

// ConstGates returns the total per-group constant gate overhead.
func (g Grouping) ConstGates() int { return g.NumGroups() * groupConstGates }

// ErrorFFs returns the per-group error-indication flip-flops.
func (g Grouping) ErrorFFs() int { return g.NumGroups() }

// ForcePipelined returns a copy of the grouping with every group pipelined
// (the configuration compared in the paper's Table 7).
func (g Grouping) ForcePipelined() Grouping {
	out := Grouping{Groups: g.Groups, Pipelined: make([]bool, len(g.Groups))}
	for i := range out.Pipelined {
		out.Pipelined[i] = true
	}
	return out
}

// WireLength estimates total predictor/checker routing as the sum of
// member-to-centroid distances (in FF lengths) over all groups.
func (g Grouping) WireLength(pl *layout.Placement) float64 {
	total := 0.0
	for _, grp := range g.Groups {
		if len(grp) == 0 {
			continue
		}
		var cx, cy float64
		for _, b := range grp {
			cx += pl.X[b]
			cy += pl.Y[b]
		}
		cx /= float64(len(grp))
		cy /= float64(len(grp))
		for _, b := range grp {
			dx, dy := pl.X[b]-cx, pl.Y[b]-cy
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			total += dx + dy
		}
	}
	return total
}

// Bits returns all flip-flops covered by the grouping.
func (g Grouping) Bits() []int {
	var out []int
	for _, grp := range g.Groups {
		out = append(out, grp...)
	}
	return out
}
