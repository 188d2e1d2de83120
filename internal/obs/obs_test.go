package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("a.b.count"); again != c {
		t.Fatal("Counter is not get-or-create: second lookup returned a different instrument")
	}
	g := r.Gauge("a.b.gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

// TestHistogramBuckets pins the log-scale bucketing contract: a value
// v > 0 lands in the bucket labeled 2^bits.Len64(v), i.e. the bucket
// labeled B counts values in [B/2, B); values <= 0 land in bucket "0".
func TestHistogramBuckets(t *testing.T) {
	h := new(Histogram)
	for _, v := range []int64{-3, 0, 1, 2, 3, 4, 1023, 1024, 1 << 40} {
		h.Observe(v)
	}
	if h.Count() != 9 {
		t.Fatalf("count = %d, want 9", h.Count())
	}
	s := h.snapshot()
	want := map[string]int64{
		"0":             2, // -3, 0
		"2":             1, // 1
		"4":             2, // 2, 3
		"8":             1, // 4
		"1024":          1, // 1023
		"2048":          1, // 1024
		"2199023255552": 1, // 1<<40 in [2^40, 2^41)
	}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Fatalf("buckets = %v, want %v", s.Buckets, want)
	}
	if s.Sum != -3+1+2+3+4+1023+1024+(1<<40) {
		t.Fatalf("sum = %d", s.Sum)
	}
}

// TestNilInstrumentsNoOp is the zero-overhead-when-disabled contract: all
// instrument and registry methods on nil receivers are safe no-ops.
func TestNilInstrumentsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(9)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatal("nil instruments accumulated state")
	}
	if names := r.Names(); names != nil {
		t.Fatalf("nil registry names = %v", names)
	}
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("nil registry snapshot = %v", snap)
	}
	var tr *Tracer
	tr.Emit(struct{}{})
	if tr.Err() != nil || tr.Close() != nil {
		t.Fatal("nil tracer errored")
	}
}

// TestHotPathAllocationFree is the tentpole's hot-path guarantee: counter
// adds, gauge moves, histogram observations — registered or nil — and the
// nil-tracer guard allocate nothing.
func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	var nilC *Counter
	var nilH *Histogram
	var nilT *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Add(1)
		h.Observe(12345)
		nilC.Add(1)
		nilH.Observe(1)
		if nilT != nil {
			nilT.Emit(nil)
		}
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %v per op, want 0", allocs)
	}
}

func TestRegistryKindConflictDetaches(t *testing.T) {
	r := NewRegistry()
	r.Counter("name")
	g := r.Gauge("name") // conflicting kind: must not panic, must detach
	if g == nil {
		t.Fatal("conflicting Gauge returned nil")
	}
	g.Set(9)
	snap := r.Snapshot()
	if v, ok := snap["name"].(int64); !ok || v != 0 {
		t.Fatalf("registered counter clobbered by conflicting gauge: snapshot[name] = %v", snap["name"])
	}
}

func TestRegistrySnapshotAndNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Gauge("a.gauge").Set(-1)
	r.Histogram("c.hist").Observe(3)
	if got, want := r.Names(), []string{"a.gauge", "b.count", "c.hist"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON output is not JSON: %v\n%s", err, buf.String())
	}
	if decoded["b.count"].(float64) != 2 || decoded["a.gauge"].(float64) != -1 {
		t.Fatalf("snapshot values wrong: %v", decoded)
	}
	hist := decoded["c.hist"].(map[string]any)
	if hist["count"].(float64) != 1 || hist["sum"].(float64) != 3 {
		t.Fatalf("histogram snapshot wrong: %v", hist)
	}
}

func TestRegistryAttach(t *testing.T) {
	r := NewRegistry()
	owned := new(Counter)
	owned.Add(41)
	r.Attach("ext.count", owned)
	owned.Inc()
	if v := r.Snapshot()["ext.count"]; v != int64(42) {
		t.Fatalf("attached counter exports %v, want 42", v)
	}
	r.Attach("ext.count", new(Gauge)) // replace: last attach wins
	if v := r.Snapshot()["ext.count"]; v != int64(0) {
		t.Fatalf("re-attached instrument exports %v, want 0", v)
	}
	r.Attach("bogus", 17) // unsupported kind: ignored
	if _, ok := r.Snapshot()["bogus"]; ok {
		t.Fatal("unsupported Attach kind was registered")
	}
}

func TestTracerWritesJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	type rec struct {
		Type string `json:"type"`
		N    int    `json:"n"`
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr.Emit(rec{Type: "t", N: i})
		}(i)
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 20 {
		t.Fatalf("trace holds %d lines, want 20", len(lines))
	}
	seen := map[int]bool{}
	for _, l := range lines {
		var r rec
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("line %q is not JSON: %v", l, err)
		}
		seen[r.N] = true
	}
	if len(seen) != 20 {
		t.Fatalf("records lost or duplicated: %v", seen)
	}
	tr.Emit(rec{}) // after Close: dropped, no panic
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

func TestTracerLatchesWriteError(t *testing.T) {
	want := errors.New("disk full")
	tr := NewTracer(failWriter{err: want})
	tr.Emit(map[string]int{"a": 1})
	if !errors.Is(tr.Err(), want) {
		t.Fatalf("Err = %v, want %v", tr.Err(), want)
	}
	tr.Emit(map[string]int{"b": 2}) // dropped silently
	if !errors.Is(tr.Close(), want) {
		t.Fatal("Close lost the latched error")
	}
}

func TestTracerRejectsUnmarshalable(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Emit(func() {}) // not marshalable
	if tr.Err() == nil {
		t.Fatal("unmarshalable record did not latch an error")
	}
	if buf.Len() != 0 {
		t.Fatalf("partial record written: %q", buf.String())
	}
}

// TestServe spins up the debug endpoint on a free port and checks the
// three surfaces: /metrics JSON, expvar, and a pprof handler.
func TestServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("sweep.cells.done").Add(3)
	bound, shutdown, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	get := func(path string) []byte {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", bound, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var metrics map[string]any
	if err := json.Unmarshal(get("/metrics"), &metrics); err != nil {
		t.Fatalf("/metrics is not JSON: %v", err)
	}
	if metrics["sweep.cells.done"].(float64) != 3 {
		t.Fatalf("/metrics = %v", metrics)
	}
	if body := get("/debug/vars"); !bytes.Contains(body, []byte(`"cmdline"`)) {
		t.Fatalf("/debug/vars missing expvar defaults:\n%s", body)
	}
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Fatal("/debug/pprof/cmdline returned nothing")
	}
}
