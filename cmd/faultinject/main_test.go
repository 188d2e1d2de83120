package main

import (
	"reflect"
	"sort"
	"testing"

	"clear/internal/inject"
	"clear/internal/ino"
)

// TestRankStructuresBreaksTiesByName pins the ranking order: more SDC+DUE
// outcomes rank first, tied structures are ordered by name, and repeated
// calls give identical output.
func TestRankStructuresBreaksTiesByName(t *testing.T) {
	sp := ino.Space()
	perFF := make([]inject.FFStats, sp.NumBits())
	for i := range perFF {
		perFF[i].N = 1
	}
	first := func(name string) int { return sp.BitsOf(name)[0] }
	perFF[first("w.result")].OMM = 1
	perFF[first("w.result")].Hang = 1
	perFF[first("x.result")].OMM = 1 // ties with e.op1
	perFF[first("e.op1")].UT = 1

	got := rankStructures(sp, perFF)
	var names []string
	for _, s := range got {
		names = append(names, s.name)
	}
	if want := []string{"w.result", "e.op1", "x.result"}; !reflect.DeepEqual(names[:3], want) {
		t.Fatalf("top of ranking = %v, want %v", names[:3], want)
	}
	for _, s := range got[3:] {
		if s.sdc+s.due != 0 {
			t.Fatalf("%s: %d failures ranked below the failing structures", s.name, s.sdc+s.due)
		}
	}
	if !sort.StringsAreSorted(names[3:]) {
		t.Fatalf("tied structures are not ordered by name: %v", names[3:])
	}
	if s := got[0]; s.n != len(sp.BitsOf("w.result")) || s.sdc != 1 || s.due != 1 {
		t.Fatalf("w.result tally = %+v, want n=%d sdc=1 due=1", s, len(sp.BitsOf("w.result")))
	}
	for i := 0; i < 20; i++ {
		if again := rankStructures(sp, perFF); !reflect.DeepEqual(again, got) {
			t.Fatalf("call %d ranked differently", i+2)
		}
	}
}
