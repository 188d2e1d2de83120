package inject

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
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
func runSinkPair(t *testing.T, cfg Config, hookFactory func(*prog.Program) sim.CommitHook) (plain, sunk *Result, recs []Record) {
	t.Helper()
	p := tinyProgram(t)
	r1, err := NewInjector().Run(cfg, p, hookFactory)
	if err != nil {
		t.Fatal(err)
	}
	buf := &RecordBuffer{}
	in := NewInjector()
	in.Sink = buf
	r2, err := in.Run(cfg, p, hookFactory)
	if err != nil {
		t.Fatal(err)
	}
	return r1, r2, buf.Records()
}

// TestSinkDoesNotChangeResults is the attribution contract's equivalence
// half: attaching a RecordSink must change no campaign outcome, no Result
// field, and no cache byte, on both the warm-started and the hooked
// (cold, from-reset) paths.
func TestSinkDoesNotChangeResults(t *testing.T) {
	cfg := Config{Core: InO, Bench: "tiny-sink", Tag: "base", SamplesPerFF: 2, Seed: 0xC1EA5}
	for _, tc := range []struct {
		name string
		hook func(*prog.Program) sim.CommitHook
	}{
		{"warm", nil},
		{"hooked-cold", boundsHook(1 << 30)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, sunk, recs := runSinkPair(t, cfg, tc.hook)
			if !reflect.DeepEqual(plain, sunk) {
				t.Fatalf("results differ with sink attached:\nplain: %+v\nsunk:  %+v", plain, sunk)
			}
			b1, err := encodeCache(plain)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := encodeCache(sunk)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
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

// TestScenarioSinkOneRecord pins the scenario contract on both bodies: one
// record per executed scenario with Bit = the scenario's first flip, and
// nothing for the empty scenario.
func TestScenarioSinkOneRecord(t *testing.T) {
	p := tinyProgram(t)
	nom := NewCore(InO, p).Run(100000)
	ref, _, err := BuildReference(InO, p, 64, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for _, warm := range []*Reference{ref, nil} {
		buf := &RecordBuffer{}
		in := NewInjector()
		in.Sink = buf
		c := NewCore(InO, p)
		in.runScenarioFrom(c, nil, p, warm, Scenario{9, 3}, 40, nom.Steps, nil)
		if buf.Len() != 1 {
			t.Fatalf("warm=%v: records = %d, want 1", warm != nil, buf.Len())
		}
		if got := buf.Records()[0].Bit; got != 9 {
			t.Fatalf("warm=%v: record bit = %d, want the first flip 9", warm != nil, got)
		}
		in.runScenarioFrom(c, nil, p, warm, Scenario{}, 40, nom.Steps, nil)
		if buf.Len() != 1 {
			t.Fatalf("warm=%v: empty scenario emitted a record", warm != nil)
		}
	}
}

// TestRecordBufferDeterministicOrder checks Records() sorts by bit while
// preserving per-bit arrival order.
func TestRecordBufferDeterministicOrder(t *testing.T) {
	buf := &RecordBuffer{}
	buf.Record(Record{Bit: 5, Cycle: 2})
	buf.Record(Record{Bit: 1, Cycle: 9})
	buf.Record(Record{Bit: 5, Cycle: 1})
	got := buf.Records()
	want := []Record{{Bit: 1, Cycle: 9}, {Bit: 5, Cycle: 2}, {Bit: 5, Cycle: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Records() = %+v, want %+v", got, want)
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

// TestCacheBytesGolden freezes the on-disk ssb cache encoding of a
// handcrafted Result. If this test fails, the gob layout of Result (or the
// CLRC trailer) changed and every existing campaign cache entry would be
// invalidated — Result must not gain, lose, or reorder exported fields.
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
	got, err := encodeCache(r)
	if err != nil {
		t.Fatal(err)
	}
	const golden = "667f03010106526573756c7401ff800001070106436f6e66696701ff820001094e6f6d4379636c657301040001064e6f6d5265740104000105506572464601ff86000106546f74616c7301ff880001094465744c617453756d01040001044465744e010400000049ff8103010106436f6e66696701ff820001050104436f7265010400010542656e6368010c000103546167010c00010c53616d706c6573506572464601040001045365656401060000001fff85020101105b5d696e6a6563742e4646537461747301ff860001ff8400003aff83030101074646537461747301ff8400010501014e01060001034f4d4d01060001025554010600010448616e6701060001024544010600000046ff8703010106436f756e747301ff8800010601014e010400010856616e697368656401040001034f4d4d01040001025554010400010448616e6701040001024544010400000042ff80010206676f6c64656e010462617365010401fd0c1ea50001fe03d001fff6010301020101000102020102010001020001010c010601020102020200014a010200434c5243e516c1d4"
	if hex.EncodeToString(got) != golden {
		t.Fatalf("cache encoding changed:\ngot  %s\nwant %s", hex.EncodeToString(got), golden)
	}
	back, model, err := decodeCache(got)
	if err != nil {
		t.Fatal(err)
	}
	if model != DefaultModel || !reflect.DeepEqual(back, r) {
		t.Fatalf("golden bytes did not round-trip: model %q, %+v", model, back)
	}
}

// TestInFlightCompiledMatchesInterpreter steps both cores through the tiny
// program under compiled and interpreter execution and requires identical
// in-flight observations at every sampled cycle — InFlight must read
// through the latch mirror exactly like State().
func TestInFlightCompiledMatchesInterpreter(t *testing.T) {
	p := tinyProgram(t)
	for _, kind := range []CoreKind{InO, OoO} {
		sample := func(compiled bool) [][]sim.InFlightInst {
			setCompiled(t, compiled)
			c := NewCore(kind, p)
			var out [][]sim.InFlightInst
			for i := 0; i < 200 && !c.Done(); i++ {
				c.Step()
				if i%7 == 0 {
					out = append(out, c.InFlight(nil))
				}
			}
			return out
		}
		interp := sample(false)
		comp := sample(true)
		if !reflect.DeepEqual(interp, comp) {
			t.Fatalf("%v: in-flight observations differ between execution modes", kind)
		}
		if len(interp) == 0 || len(interp[0]) == 0 {
			t.Fatalf("%v: no in-flight instructions observed", kind)
		}
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
