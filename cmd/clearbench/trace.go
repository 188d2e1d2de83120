package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// attrs are the span attributes the report groups by. Empty fields are
// omitted from the JSONL output.
type attrs struct {
	Bench  string `json:"bench,omitempty"`
	Core   string `json:"core,omitempty"`
	Tag    string `json:"tag,omitempty"`
	Model  string `json:"model,omitempty"`
	Hooked bool   `json:"hooked,omitempty"`
}

// span is one timed call the benchmark made into a layer. Start and End are
// nanoseconds since the tracer was created; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Iter   int    `json:"iter"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	attrs
}

// Layer is the package the span's call went into: the part of Name before
// the first dot ("core.Engine.Campaign" is in layer "core").
func (s *span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records spans in memory. A nil *tracer records nothing, so
// untraced runs pay one nil check per call. Spans are appended under a
// mutex because sweep workers record cells concurrently.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	iter  int // iteration id stamped on new spans; -1 outside iterations
}

func newTracer() *tracer { return &tracer{t0: time.Now(), iter: -1} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, name string, a attrs) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Iter: t.iter, Name: name, Start: now, End: -1, attrs: a})
	t.mu.Unlock()
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// setIter stamps spans opened from now on with iteration id it.
func (t *tracer) setIter(it int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.iter = it
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLength returns the total length covered by ivs, counting overlapping
// stretches once, after clipping every interval to [lo, hi).
func unionLength(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range clipped {
		if iv.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = iv.lo, iv.hi
			continue
		}
		curHi = max(curHi, iv.hi)
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// selfTimes returns each span's self time, indexed like spans: its duration
// minus the union of its children's intervals. Children of one span may
// overlap each other (two sweep workers evaluate cells at once), so
// subtracting their summed durations would over-count; the union counts
// each covered nanosecond once. Unfinished spans have self time 0.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		out[i] = s.End - s.Start - unionLength(children[s.ID], s.Start, s.End)
	}
	return out
}
