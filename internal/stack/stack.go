// Package stack defines the cross-layer resilience vocabulary: the system
// stack layers, the γ correction factor of [Schirmeier 15] (Sec 2.1 of the
// paper), and the SDC/DUE improvement arithmetic of Eq. 1a/1b. The
// techniques themselves live in the internal/technique registry.
package stack

import "math"

// Layer is an abstraction layer of the system stack.
type Layer int

// Stack layers, bottom to top. Recovery is the pseudo-layer of the four
// hardware recovery mechanisms (Table 15): they attach to detection
// techniques rather than occupying a stack layer of their own.
const (
	Circuit Layer = iota
	Logic
	Architecture
	Software
	Algorithm
	Recovery
)

func (l Layer) String() string {
	switch l {
	case Circuit:
		return "Circuit"
	case Logic:
		return "Logic"
	case Architecture:
		return "Architecture"
	case Software:
		return "Software"
	case Algorithm:
		return "Algorithm"
	case Recovery:
		return "Recovery"
	}
	return "?"
}

// Gamma computes the susceptibility correction factor: techniques that add
// flip-flops or execution time enlarge the design's exposure to soft
// errors. Overheads multiply: a design with 20% more flip-flops running
// 6.2% longer has γ = 1.2 × 1.062 (the paper's DFC example).
func Gamma(ffOverheads, timeOverheads []float64) float64 {
	g := 1.0
	for _, v := range ffOverheads {
		g *= 1 + v
	}
	for _, v := range timeOverheads {
		g *= 1 + v
	}
	return g
}

// Improvement implements Eq. 1a/1b: original error count over new error
// count, discounted by γ. A zero new count is a genuine "max" point and
// returns +Inf; a zero original count returns 1 (nothing to improve).
func Improvement(orig, new, gamma float64) float64 {
	if orig <= 0 {
		return 1
	}
	if new <= 0 {
		return math.Inf(1)
	}
	return orig / new / gamma
}
