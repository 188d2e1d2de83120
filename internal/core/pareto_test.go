package core

import (
	"testing"
	"testing/quick"
)

func TestParetoFrontier(t *testing.T) {
	pts := []ParetoPoint{
		{"a", 2, 0.02},
		{"b", 5, 0.04},
		{"c", 5, 0.10}, // dominated by b
		{"d", 50, 0.06},
		{"e", 10, 0.08}, // dominated by d
		{"f", 500, 0.09},
	}
	fr := ParetoFrontier(pts)
	want := []string{"a", "b", "d", "f"}
	if len(fr) != len(want) {
		t.Fatalf("frontier %v", fr)
	}
	for i, w := range want {
		if fr[i].Name != w {
			t.Fatalf("frontier[%d] = %s, want %s", i, fr[i].Name, w)
		}
	}
	if ParetoFrontier(nil) != nil {
		t.Fatal("empty frontier")
	}
}

// Properties: frontier members are non-dominated and come from the input;
// every input point is dominated by (or is) a frontier point.
func TestParetoProperties(t *testing.T) {
	prop := func(raw [12]struct {
		Imp uint8
		En  uint8
	}) bool {
		var pts []ParetoPoint
		for i, r := range raw {
			pts = append(pts, ParetoPoint{
				Name:        string(rune('a' + i)),
				Improvement: float64(r.Imp%50) + 1,
				Energy:      float64(r.En%100)/100 + 0.01,
			})
		}
		fr := ParetoFrontier(pts)
		// non-domination within the frontier
		for i, p := range fr {
			for j, q := range fr {
				if i == j {
					continue
				}
				if q.Improvement >= p.Improvement && q.Energy < p.Energy {
					return false
				}
			}
		}
		// coverage: every point weakly dominated by some frontier point
		for _, p := range pts {
			ok := false
			for _, q := range fr {
				if q.Improvement >= p.Improvement && q.Energy <= p.Energy {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
