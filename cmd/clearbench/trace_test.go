package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "sweep.Run", Start: 0, End: 100},
		// Two workers: [10,60) and [40,90) overlap on [40,60); their union
		// is [10,90), 80 long, while their summed durations are 100.
		{ID: 2, Parent: 1, Name: "sweep.cell", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "sweep.cell", Start: 40, End: 90},
		// A grandchild only reduces its own parent's self time.
		{ID: 4, Parent: 2, Name: "core.Engine.EvalCombo", Start: 20, End: 30},
		// A child running past its parent's end is clipped to the parent.
		{ID: 5, Parent: 3, Name: "core.Engine.Campaign", Start: 85, End: 95},
	}
	got := selfTimes(spans)
	want := []int64{20, 40, 45, 10, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s #%d) = %d, want %d", spans[i].Name, spans[i].ID, got[i], want[i])
		}
	}
}

func TestUnionLength(t *testing.T) {
	cases := []struct {
		ivs    []interval
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[]interval{{0, 5}, {5, 10}}, 0, 10, 10},
		{[]interval{{2, 4}, {0, 3}, {8, 12}}, 0, 10, 6},
		{[]interval{{0, 10}, {2, 3}}, 0, 10, 10},
		{[]interval{{-5, 3}, {20, 30}}, 0, 10, 3},
	}
	for i, c := range cases {
		if got := unionLength(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("case %d: union = %d, want %d", i, got, c.want)
		}
	}
}

func TestTracerRecordsParentsAndWritesJSONL(t *testing.T) {
	tr := newTracer()
	tr.setIter(3)
	root := tr.begin(0, "iter", attrs{})
	child := tr.begin(root, "core.Engine.Base", attrs{Bench: "gzip", Core: "InO", Tag: "base"})
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Iter != 3 || spans[1].Layer() != "core" {
		t.Fatalf("spans %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].End < spans[1].Start {
		t.Fatalf("span times out of order: %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if s != spans[n] {
			t.Fatalf("line %d round-trips to %+v, want %+v", n, s, spans[n])
		}
		n++
	}
	if n != 2 {
		t.Fatalf("%d lines, want 2", n)
	}

	var nilTracer *tracer
	if id := nilTracer.begin(0, "x", attrs{}); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	nilTracer.end(0)
}
