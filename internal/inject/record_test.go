package inject

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"clear/internal/ff"
	"clear/internal/ino"
	"clear/internal/obs"
	"clear/internal/ooo"
	"clear/internal/prog"
	"clear/internal/sim"
)

// runSinkPair runs the same campaign twice on fresh injectors — once bare,
// once with a RecordBuffer attached — and returns both results plus the
// collected records.
func runSinkPair(t *testing.T, cfg Config, cf func(*prog.Program) sim.Checker) (plain, sunk *Result, recs []Record) {
	t.Helper()
	p := tinyProgram(t)
	r1, err := NewInjector().Run(cfg, p, cf)
	if err != nil {
		t.Fatal(err)
	}
	buf := &RecordBuffer{}
	in := NewInjector()
	in.Sink = buf
	r2, err := in.Run(cfg, p, cf)
	if err != nil {
		t.Fatal(err)
	}
	return r1, r2, buf.Records()
}

// TestSinkDoesNotChangeResults is the attribution contract's equivalence
// half: attaching a RecordSink must change no campaign outcome, no Result
// field, and no cache byte, in unchecked and in checked campaigns.
func TestSinkDoesNotChangeResults(t *testing.T) {
	cfg := Config{Core: InO, Bench: "tiny-sink", Tag: "base", SamplesPerFF: 2, Seed: 0xC1EA5}
	for _, tc := range []struct {
		name string
		cf   func(*prog.Program) sim.Checker
	}{
		{"warm", nil},
		{"checked", boundsCheckers(1 << 30)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, sunk, recs := runSinkPair(t, cfg, tc.cf)
			if !reflect.DeepEqual(plain, sunk) {
				t.Fatalf("results differ with sink attached:\nplain: %+v\nsunk:  %+v", plain, sunk)
			}
			if !bytes.Equal(encodeCache(plain), encodeCache(sunk)) {
				t.Fatal("cache bytes differ with sink attached")
			}
			if len(recs) != plain.Totals.N {
				t.Fatalf("records = %d, want one per injection (%d)", len(recs), plain.Totals.N)
			}
		})
	}
}

// TestRecordsWellFormed checks every emitted record against the space and
// the campaign's own accounting: bits in range, units matching the space,
// cycles inside the nominal window, detection latencies only on ED, and
// per-outcome record tallies equal to the campaign totals.
func TestRecordsWellFormed(t *testing.T) {
	cfg := Config{Core: InO, Bench: "tiny-wf", Tag: "base", SamplesPerFF: 3, Seed: 0xC1EA5}
	res, _, recs := runSinkPair(t, cfg, nil)
	space := ino.Space()
	var got Counts
	for _, r := range recs {
		if r.Bit < 0 || r.Bit >= space.NumBits() {
			t.Fatalf("record bit %d out of range", r.Bit)
		}
		if want := space.UnitOf(r.Bit); r.Unit != want {
			t.Fatalf("record unit %q for bit %d, want %q", r.Unit, r.Bit, want)
		}
		if r.Cycle < 0 || r.Cycle >= res.NomCycles {
			t.Fatalf("record cycle %d outside nominal window [0,%d)", r.Cycle, res.NomCycles)
		}
		if r.Outcome == ED {
			if r.DetLat < 0 {
				t.Fatalf("ED record with DetLat %d", r.DetLat)
			}
		} else if r.DetLat != -1 {
			t.Fatalf("%v record with DetLat %d, want -1", r.Outcome, r.DetLat)
		}
		got.Add(r.Outcome)
	}
	if got != res.Totals {
		t.Fatalf("record outcome tallies %+v != campaign totals %+v", got, res.Totals)
	}
	// Most attributed roots must be real static instructions. A few
	// out-of-range PCs are legitimate — the fetch stage holds the
	// next-to-fetch PC, which runs past the last word while halt drains —
	// but the bulk of the attribution must land inside the program.
	p := tinyProgram(t)
	attributed, inRange := 0, 0
	for _, r := range recs {
		if r.RootPC == NoRootPC {
			continue
		}
		attributed++
		if int(r.RootPC) < len(p.Words) {
			inRange++
		}
	}
	if attributed == 0 {
		t.Fatal("no record attributed a root instruction")
	}
	if inRange*2 < attributed {
		t.Fatalf("only %d of %d attributed roots inside the program", inRange, attributed)
	}
}

// TestScenarioSinkOneRecord pins the scenario contract: each body emits
// one record per run with Bit = the scenario's first flip (the cold and the
// warm body observe the same strike identically), and a campaign emits one
// record per executed scenario and none for the empty ones.
func TestScenarioSinkOneRecord(t *testing.T) {
	p := tinyProgram(t)
	nom := NewCore(InO, p).Run(100000)
	ref, _, err := BuildReference(InO, p, 64, 100000)
	if err != nil {
		t.Fatal(err)
	}
	buf := &RecordBuffer{}
	rec := newRecorder(buf)
	c := NewCore(InO, p)
	runCold(rec, c, p, Scenario{9, 3}, 40, nom.Steps, nil)
	NewInjector().runWarm(rec, c, nil, p, ref, Scenario{9, 3}, 40, nom.Steps)
	recs := buf.Records()
	if len(recs) != 2 || recs[0].Bit != 9 || recs[0] != recs[1] {
		t.Fatalf("cold then warm records = %+v, want two identical records of the first flip 9", recs)
	}

	// mixModel expands every fifth bit's strikes to the empty scenario.
	registerTestModel(t, mixModel{})
	cfg := Config{Core: InO, Bench: "tiny", Tag: "zmix/x", SamplesPerFF: 2, Seed: 5}
	for _, cf := range []func(*prog.Program) sim.Checker{nil, noopCheckers} {
		buf := &RecordBuffer{}
		in := NewInjector()
		in.Sink = buf
		res, err := in.Run(cfg, p, cf)
		if err != nil {
			t.Fatal(err)
		}
		empty := cfg.SamplesPerFF * ((SpaceBits(InO) + 4) / 5)
		if buf.Len() != res.Totals.N-empty {
			t.Fatalf("checked=%v: %d records for %d injections of which %d are empty",
				cf != nil, buf.Len(), res.Totals.N, empty)
		}
	}
}

// TestRecordBufferDeterministicOrder checks Records() orders by content:
// the same records delivered in two arrival orders come back identical,
// sorted by bit, then cycle, outcome, detection latency and root PC.
func TestRecordBufferDeterministicOrder(t *testing.T) {
	want := []Record{
		{Bit: 1, Cycle: 9, Outcome: OMM, DetLat: -1, RootPC: 4},
		{Bit: 5, Cycle: 1, Outcome: Vanished, DetLat: -1, RootPC: 2},
		{Bit: 5, Cycle: 2, Outcome: Vanished, DetLat: -1, RootPC: NoRootPC},
		{Bit: 5, Cycle: 2, Outcome: ED, DetLat: 3, RootPC: 2},
		{Bit: 5, Cycle: 2, Outcome: ED, DetLat: 7, RootPC: 1},
		{Bit: 5, Cycle: 2, Outcome: ED, DetLat: 7, RootPC: 6},
	}
	for _, order := range [][]int{{5, 3, 0, 4, 1, 2}, {2, 4, 1, 0, 3, 5}} {
		buf := &RecordBuffer{}
		for _, i := range order {
			buf.Record(want[i])
		}
		if got := buf.Records(); !reflect.DeepEqual(got, want) {
			t.Fatalf("arrival order %v: Records() = %+v, want %+v", order, got, want)
		}
	}
}

// TestSinkRecordsMatchReference pins what a sink receives from a campaign
// on both cores under ssb, mbu and set: the sorted records of a campaign
// (gang lanes observed at their fork), unchecked or checked by a checker
// that never fires, must equal the reference campaign's records, and tally
// to the Result.
func TestSinkRecordsMatchReference(t *testing.T) {
	p := tinyProgram(t)
	for _, kind := range []CoreKind{InO, OoO} {
		for _, model := range []string{"ssb", "mbu", "set"} {
			cfg := Config{Core: kind, Bench: "tiny", Tag: ModelTag(model, "x"), SamplesPerFF: 1, Seed: 0xA77}
			refBuf := &RecordBuffer{}
			want := referenceCampaign(t, cfg, p, nil, refBuf)
			for _, cf := range []func(*prog.Program) sim.Checker{nil, noopCheckers} {
				label := fmt.Sprintf("%v/%s checked=%v", kind, model, cf != nil)
				buf := &RecordBuffer{}
				in := NewInjector()
				in.Sink = buf
				res, err := in.Run(cfg, p, cf)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, label, want, res)
				recs := buf.Records()
				if !reflect.DeepEqual(recs, refBuf.Records()) {
					t.Fatalf("%s: %d records differ from the reference's %d", label, len(recs), refBuf.Len())
				}
				var got Counts
				var latSum, latN int64
				for _, r := range recs {
					got.Add(r.Outcome)
					if r.DetLat >= 0 {
						latSum += int64(r.DetLat)
						latN++
					}
				}
				vanishedByConstruction := res.Totals.N - len(recs)
				got.N += vanishedByConstruction
				got.Vanished += vanishedByConstruction
				if got != res.Totals || latSum != res.DetLatSum || latN != res.DetN {
					t.Fatalf("%s: records tally to %+v lat=%d/%d, result %+v lat=%d/%d",
						label, got, latSum, latN, res.Totals, res.DetLatSum, res.DetN)
				}
			}
		}
	}
}

// countSink counts records and keeps nothing.
type countSink struct{ n atomic.Int64 }

func (s *countSink) Record(Record) { s.n.Add(1) }

// TestSinkCampaignAllocs bounds what attribution costs a campaign in
// memory: with a counting sink attached, an unchecked campaign and a
// checked one must each allocate at most 64 bytes per injection more than
// the same campaign without a sink, on both cores. The campaign
// worker owns the in-flight buffer every observation fills; one worker
// (GOMAXPROCS 1) keeps the two runs' allocations comparable.
func TestSinkCampaignAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := tinyProgram(t)
	for _, kind := range []CoreKind{InO, OoO} {
		cfg := Config{Core: kind, Bench: "tiny", SamplesPerFF: 1, Seed: 0xA110C}
		// Build the once-per-process state — model environment, threaded
		// code, attribution table — before either measured run.
		warmup := NewInjector()
		warmup.Sink = &countSink{}
		if _, err := warmup.Run(cfg, p, nil); err != nil {
			t.Fatal(err)
		}
		for _, cf := range []func(*prog.Program) sim.Checker{nil, noopCheckers} {
			alloc := func(sink RecordSink) (uint64, int) {
				in := NewInjector()
				in.Sink = sink
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := in.Run(cfg, p, cf)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				return after.TotalAlloc - before.TotalAlloc, res.Totals.N
			}
			plain, n := alloc(nil)
			sink := &countSink{}
			sunk, _ := alloc(sink)
			if sink.n.Load() != int64(n) {
				t.Fatalf("%v checked=%v: sink counted %d records for %d injections", kind, cf != nil, sink.n.Load(), n)
			}
			extra := int64(sunk) - int64(plain)
			t.Logf("%v checked=%v: %d injections, %d B without a sink, %+d B with one", kind, cf != nil, n, plain, extra)
			if extra > 64*int64(n) {
				t.Fatalf("%v checked=%v: the sink added %d B over %d injections (%.0f B each), want at most 64 B each",
					kind, cf != nil, extra, n, float64(extra)/float64(n))
			}
		}
	}
}

// TestTraceSinkSchema checks the JSONL export: one "injection" object per
// record with the NoRootPC sentinel mapped to -1.
func TestTraceSinkSchema(t *testing.T) {
	var out bytes.Buffer
	tr := obs.NewTracer(&out)
	s := TraceSink{T: tr}
	s.Record(Record{Bit: 7, Unit: "fetch", Cycle: 12, Outcome: OMM, DetLat: -1, RootPC: 3})
	s.Record(Record{Bit: 8, Unit: "rob", Cycle: 40, Outcome: ED, DetLat: 5, RootPC: NoRootPC})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var rec struct {
		Type    string `json:"type"`
		Bit     int    `json:"bit"`
		Unit    string `json:"unit"`
		Cycle   int    `json:"cycle"`
		Outcome string `json:"outcome"`
		DetLat  int    `json:"det_lat"`
		RootPC  int64  `json:"root_pc"`
	}
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Type != "injection" || rec.Unit != "fetch" || rec.RootPC != 3 {
		t.Fatalf("first line = %+v", rec)
	}
	if err := json.Unmarshal(lines[1], &rec); err != nil {
		t.Fatal(err)
	}
	if rec.RootPC != -1 || rec.Outcome != "ED" || rec.DetLat != 5 {
		t.Fatalf("second line = %+v", rec)
	}
}

// TestTraceSinkZeroLatencyDetLat is the regression for the omitempty bug:
// an ED detection firing at the injection cycle has DetLat 0, and the JSONL
// export must still carry det_lat explicitly — dropping the field made an
// instant detection indistinguishable from the -1 of non-ED records.
func TestTraceSinkZeroLatencyDetLat(t *testing.T) {
	var out bytes.Buffer
	tr := obs.NewTracer(&out)
	s := TraceSink{T: tr}
	s.Record(Record{Bit: 3, Unit: "rob", Cycle: 21, Outcome: ED, DetLat: 0, RootPC: 9})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	line := bytes.TrimSpace(out.Bytes())
	if !bytes.Contains(line, []byte(`"det_lat":0`)) {
		t.Fatalf("zero-latency detection dropped det_lat from JSONL: %s", line)
	}
	var rec map[string]any
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatal(err)
	}
	v, present := rec["det_lat"]
	if !present {
		t.Fatalf("det_lat missing from decoded record: %v", rec)
	}
	if v.(float64) != 0 {
		t.Fatalf("det_lat = %v, want 0", v)
	}
}

// TestFFStatsAddSat checks saturation: merged counters clamp at the uint16
// bound instead of wrapping (the counter stays a conservative upper bound).
func TestFFStatsAddSat(t *testing.T) {
	a := FFStats{N: math.MaxUint16 - 1, OMM: 10, UT: math.MaxUint16}
	a.AddSat(FFStats{N: 5, OMM: 2, UT: 1, Hang: 3})
	want := FFStats{N: math.MaxUint16, OMM: 12, UT: math.MaxUint16, Hang: 3}
	if a != want {
		t.Fatalf("AddSat = %+v, want %+v", a, want)
	}
}

// TestCacheBytesGolden freezes the on-disk encoding of a handcrafted
// Result. If this test fails, the entry layout changed: bump ResultsVersion
// (DESIGN.md §8), so entries of the old layout are never read, and re-pin.
func TestCacheBytesGolden(t *testing.T) {
	r := &Result{
		Config:    Config{Core: InO, Bench: "golden", Tag: "base", SamplesPerFF: 2, Seed: 0xC1EA5},
		NomCycles: 488,
		NomRet:    123,
		PerFF: []FFStats{
			{N: 2, OMM: 1},
			{N: 2, UT: 1, ED: 1},
			{N: 2},
		},
		Totals:    Counts{N: 6, Vanished: 3, OMM: 1, UT: 1, ED: 1},
		DetLatSum: 37,
		DetN:      1,
	}
	got := encodeCache(r)
	const golden = "434c524501000000000604676f6c64656e6261736504a51e0c0000000000d007f6010c06020200024a02030201000000020001000102000000004a5899ab"
	if hex.EncodeToString(got) != golden {
		t.Fatalf("cache encoding changed:\ngot  %s\nwant %s", hex.EncodeToString(got), golden)
	}
	back, err := decodeCache(got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Fatalf("golden bytes did not round-trip: %+v", back)
	}
}

// TestInFlightAppendsToDst checks the allocation contract: InFlight appends
// to the caller's buffer and always reports the fetch PC.
func TestInFlightAppendsToDst(t *testing.T) {
	p := tinyProgram(t)
	for _, kind := range []CoreKind{InO, OoO} {
		c := NewCore(kind, p)
		for i := 0; i < 50; i++ {
			c.Step()
		}
		var buf [160]sim.InFlightInst
		flights := c.InFlight(buf[:0])
		if len(flights) == 0 {
			t.Fatalf("%v: empty in-flight list mid-run", kind)
		}
		if flights[0].Unit != "fetch" {
			t.Fatalf("%v: first entry unit %q, want fetch", kind, flights[0].Unit)
		}
		var sp *ff.Space
		if kind == InO {
			sp = ino.Space()
		} else {
			sp = ooo.Space()
		}
		units := map[string]bool{}
		for _, u := range sp.Units() {
			units[u] = true
		}
		for _, f := range flights {
			if !units[f.Unit] {
				t.Fatalf("%v: in-flight unit %q not in the space", kind, f.Unit)
			}
		}
	}
}

// TestAttrTrailingIndex pins the field-name suffix parser attribution
// tables are built from.
func TestAttrTrailingIndex(t *testing.T) {
	cases := map[string]int{
		"f.pc":             -1,
		"rob.pc17":         17,
		"sched0.s1val5":    5,
		"mem.stq.address0": 0,
		"exec.mu0.a12":     12,
		"42":               42,
	}
	for name, want := range cases {
		if got := trailingIndex(name); got != want {
			t.Errorf("trailingIndex(%q) = %d, want %d", name, got, want)
		}
	}
}
