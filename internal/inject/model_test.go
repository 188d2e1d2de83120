package inject

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"clear/internal/prog"
	"clear/internal/sim"
)

func TestModelRegistry(t *testing.T) {
	want := []string{"mbu", "set", "ssb", "uncore"}
	if got := ModelNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ModelNames() = %v, want %v", got, want)
	}
	for _, name := range want {
		m := LookupModel(name)
		if m == nil {
			t.Fatalf("LookupModel(%q) = nil", name)
		}
		if m.Name() != name {
			t.Fatalf("LookupModel(%q).Name() = %q", name, m.Name())
		}
	}
	if LookupModel("nope") != nil {
		t.Fatal("LookupModel accepted an unregistered name")
	}
}

func TestRegisterModelValidation(t *testing.T) {
	cases := []string{"", "has/slash", "UPPER", "ssb"}
	for _, name := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterModel(%q) did not panic", name)
				}
			}()
			RegisterModel(badModel{name})
		}()
	}
}

type badModel struct{ name string }

func (m badModel) Name() string                                                { return m.name }
func (badModel) Bits(*ModelEnv) []int                                          { return nil }
func (badModel) Expand(_ *ModelEnv, _, _ int, _ uint64, dst Scenario) Scenario { return dst }

func TestModelTagRoundTrip(t *testing.T) {
	cases := []struct {
		model, tag  string
		wantTag     string
		backModel   string
		backBaseTag string
	}{
		{"ssb", "base", "base", "ssb", "base"},
		{"", "base", "base", "ssb", "base"},
		{"mbu", "base", "mbu/base", "mbu", "base"},
		{"set", "eddi-srb", "set/eddi-srb", "set", "eddi-srb"},
		{"uncore", "", "uncore/", "uncore", ""},
	}
	for _, tc := range cases {
		if got := ModelTag(tc.model, tc.tag); got != tc.wantTag {
			t.Errorf("ModelTag(%q, %q) = %q, want %q", tc.model, tc.tag, got, tc.wantTag)
		}
		m, base := SplitModelTag(tc.wantTag)
		if m != tc.backModel || base != tc.backBaseTag {
			t.Errorf("SplitModelTag(%q) = (%q, %q), want (%q, %q)",
				tc.wantTag, m, base, tc.backModel, tc.backBaseTag)
		}
	}
	// A tag whose slash prefix is not a registered model stays ssb whole.
	if m, base := SplitModelTag("weird/tag"); m != "ssb" || base != "weird/tag" {
		t.Errorf("SplitModelTag(weird/tag) = (%q, %q)", m, base)
	}
	// An explicit "ssb/" prefix is not a model prefix (ssb is unprefixed).
	if m, base := SplitModelTag("ssb/base"); m != "ssb" || base != "ssb/base" {
		t.Errorf("SplitModelTag(ssb/base) = (%q, %q)", m, base)
	}
}

func TestMBUClusterExpansion(t *testing.T) {
	for _, kind := range []CoreKind{InO, OoO} {
		env := EnvFor(kind)
		model := LookupModel("mbu")
		nBits := SpaceBits(kind)
		for _, bit := range []int{0, 1, nBits / 2, nBits - 1} {
			cluster := env.Cluster(bit, nil)
			sc := model.Expand(env, bit, 100, 12345, nil)
			if !reflect.DeepEqual([]int(sc), cluster) {
				t.Fatalf("%v bit %d: scenario %v, cluster %v", kind, bit, sc, cluster)
			}
			seen := false
			for i, f := range sc {
				if f == bit {
					seen = true
				}
				if i > 0 && sc[i-1] >= f {
					t.Fatalf("%v bit %d: cluster not ascending: %v", kind, bit, sc)
				}
				if d := env.Pl.WithinRadius(bit, 1.0); f != bit && !containsInt(d, f) {
					t.Fatalf("%v bit %d: flip %d outside the SEMU radius", kind, bit, f)
				}
			}
			if !seen {
				t.Fatalf("%v bit %d: struck bit missing from its own cluster %v", kind, bit, sc)
			}
		}
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestUncoreBitsPopulation(t *testing.T) {
	wantUnits := map[CoreKind]map[string]bool{
		InO: {"memory": true, "icache": true, "dcache": true},
		OoO: {"fetchbuf": true, "stq": true, "l1dcache": true},
	}
	model := LookupModel("uncore")
	for _, kind := range []CoreKind{InO, OoO} {
		env := EnvFor(kind)
		bits := model.Bits(env)
		if len(bits) == 0 {
			t.Fatalf("%v: empty uncore strike population", kind)
		}
		if len(bits) >= SpaceBits(kind) {
			t.Fatalf("%v: uncore population is the whole space", kind)
		}
		for i, b := range bits {
			if u := env.Pl.Space.UnitOf(b); !wantUnits[kind][u] {
				t.Fatalf("%v: uncore bit %d is in unit %q", kind, b, u)
			}
			if i > 0 && bits[i-1] >= b {
				t.Fatalf("%v: uncore bits not ascending", kind)
			}
		}
		sc := model.Expand(env, bits[0], 5, 99, nil)
		if len(sc) != 1 || sc[0] != bits[0] {
			t.Fatalf("%v: uncore expansion %v, want the single flip %d", kind, sc, bits[0])
		}
	}
}

func TestSETSlackGate(t *testing.T) {
	env := EnvFor(InO)
	model := LookupModel("set")
	gated, passed := 0, 0
	for bit := 0; bit < SpaceBits(InO); bit++ {
		for h := uint64(0); h < 4; h++ {
			draw := h << 32 // pulse = 1 + (h>>32)%SETMaxPulse
			pulse := 1 + int(h%SETMaxPulse)
			sc := model.Expand(env, bit, 7, draw, nil)
			if env.Pl.Slack[bit] < pulse {
				if len(sc) != 1 || sc[0] != bit {
					t.Fatalf("bit %d slack %d pulse %d: want latch, got %v",
						bit, env.Pl.Slack[bit], pulse, sc)
				}
				passed++
			} else {
				if len(sc) != 0 {
					t.Fatalf("bit %d slack %d pulse %d: transient should vanish, got %v",
						bit, env.Pl.Slack[bit], pulse, sc)
				}
				gated++
			}
		}
	}
	if gated == 0 || passed == 0 {
		t.Fatalf("slack gate is degenerate: %d gated, %d passed", gated, passed)
	}
}

// TestScenarioWarmColdEquivalence pins the core scenario contract: the
// warm body must classify every scenario identically to the cold body.
func TestScenarioWarmColdEquivalence(t *testing.T) {
	p := tinyProgram(t)
	ref, nomRes, err := BuildReference(InO, p, 16, 100000)
	if err != nil {
		t.Fatal(err)
	}
	nom := nomRes.Steps
	cold := NewCore(InO, p)
	warm := NewCore(InO, p)
	in := NewInjector()
	scenarios := []Scenario{
		{3},
		{3, 9},
		{9, 3},
		{1, 2, 3},
		{7, 7}, // double flip of one bit: a no-op
	}
	for _, sc := range scenarios {
		for _, cycle := range []int{1, nom / 3, nom - 2} {
			o1, d1 := RunScenario(cold, p, sc, cycle, nom, nil)
			o2, d2 := in.runWarm(nil, warm, nil, p, ref, sc, cycle, nom)
			if o1 != o2 || d1 != d2 {
				t.Fatalf("scenario %v cycle %d: cold (%v,%d) vs warm (%v,%d)",
					sc, cycle, o1, d1, o2, d2)
			}
		}
	}
}

// TestWarmInjectionAllocFree pins the kernel's allocation contract: a warm
// ssb injection and a warm mbu injection — expansion into the caller's
// reused buffer, then the warm body — allocate nothing on either core.
func TestWarmInjectionAllocFree(t *testing.T) {
	p := tinyProgram(t)
	for _, kind := range []CoreKind{InO, OoO} {
		ref, nomRes, err := BuildReference(kind, p, CheckpointInterval, nomBudget)
		if err != nil {
			t.Fatal(err)
		}
		nom := nomRes.Steps
		env := EnvFor(kind)
		c := NewCore(kind, p)
		in := NewInjector()
		for _, name := range []string{"ssb", "mbu"} {
			model := LookupModel(name)
			bit, cycle := SpaceBits(kind)/2, nom/2
			for len(env.Cluster(bit, nil)) < 2 {
				bit++ // strike a bit with placement neighbours
			}
			var sc Scenario
			inject := func() {
				sc = model.Expand(env, bit, cycle, 0xC1EA5, sc[:0])
				in.runWarm(nil, c, nil, p, ref, sc, cycle, nom)
			}
			inject() // grow the buffer once
			if n := testing.AllocsPerRun(20, inject); n != 0 {
				t.Errorf("%v/%s: %v allocations per warm injection, want 0", kind, name, n)
			}
		}
	}
}

// emptyModel is a test-only fault model whose every strike latches nothing.
type emptyModel struct{}

func (emptyModel) Name() string                                                  { return "zempty" }
func (emptyModel) Bits(*ModelEnv) []int                                          { return nil }
func (emptyModel) Expand(_ *ModelEnv, _, _ int, _ uint64, dst Scenario) Scenario { return dst }

// TestEmptyScenarioVanishesWithoutSimulation runs a campaign whose every
// strike expands to the empty scenario: each counts as one Vanished
// injection decided without simulation (injections.inert), no injection
// is simulated (the checker factory builds a checker for the nominal run
// only: no worker core is ever created), and no record is emitted.
func TestEmptyScenarioVanishesWithoutSimulation(t *testing.T) {
	p := tinyProgram(t)
	registerTestModel(t, emptyModel{})
	var runs atomic.Int64
	cf := func(p *prog.Program) sim.Checker {
		runs.Add(1)
		return noopChecker{}
	}
	in := NewInjector()
	buf := &RecordBuffer{}
	in.Sink = buf
	cfg := Config{Core: InO, Bench: "tiny", Tag: "zempty/x", SamplesPerFF: 2, Seed: 1}
	res, err := in.Run(cfg, p, cf)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.SamplesPerFF * SpaceBits(InO)
	if res.Totals != (Counts{N: n, Vanished: n}) {
		t.Fatalf("totals %+v, want %d Vanished", res.Totals, n)
	}
	if got := in.injTotal.Value(); got != int64(n) {
		t.Fatalf("tallied %d injections, want %d", got, n)
	}
	if got := in.injInert.Value(); got != int64(n) {
		t.Fatalf("%d injections counted inert, want all %d", got, n)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("checker factory ran %d times, want once for the nominal run", got)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty scenarios emitted %d records", buf.Len())
	}
}

// TestModelCampaignDeterminism runs one campaign per non-ssb model twice
// and requires identical results — the FaultModel purity contract the
// cache depends on.
func TestModelCampaignDeterminism(t *testing.T) {
	p := tinyProgram(t)
	for _, model := range []string{"mbu", "uncore", "set"} {
		cfg := Config{Core: InO, Bench: "tiny", Tag: ModelTag(model, "base"), SamplesPerFF: 1, Seed: 42}
		r1, err := NewInjector().Run(cfg, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := NewInjector().Run(cfg, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("%s campaign not deterministic", model)
		}
		if r1.Totals.N == 0 {
			t.Fatalf("%s campaign ran no injections", model)
		}
		if len(r1.PerFF) != SpaceBits(InO) {
			t.Fatalf("%s campaign PerFF has %d entries, want the full space", model, len(r1.PerFF))
		}
	}
}

// TestUncoreCampaignOnlyStrikesUncore checks the population restriction
// reaches the campaign loop: every sampled injection lands on an uncore
// bit, core-datapath flip-flops get none.
func TestUncoreCampaignOnlyStrikesUncore(t *testing.T) {
	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", Tag: "uncore/base", SamplesPerFF: 1, Seed: 7}
	r, err := NewInjector().Run(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := EnvFor(InO)
	uncore := map[int]bool{}
	for _, b := range env.UncoreBits() {
		uncore[b] = true
	}
	for bit, st := range r.PerFF {
		if st.N > 0 && !uncore[bit] {
			t.Fatalf("core bit %d (%s) was struck under the uncore model",
				bit, unitOfBit(env, bit))
		}
		if st.N == 0 && uncore[bit] {
			t.Fatalf("uncore bit %d got no samples", bit)
		}
	}
	if int(r.Totals.N) != len(env.UncoreBits())*cfg.SamplesPerFF {
		t.Fatalf("uncore campaign N = %d, want %d", r.Totals.N, len(env.UncoreBits())*cfg.SamplesPerFF)
	}
}

func unitOfBit(env *ModelEnv, bit int) string { return env.Pl.Space.UnitOf(bit) }

// The offsets of the tag's length byte and of the tag's first byte in an
// entry whose Core and name lengths each take one byte.
const entryTagLen = entryHeader + 2

func entryTagAt(bench string) int { return entryTagLen + 1 + len(bench) }

// TestCacheModelTrailerRoundTrip checks that an entry carries its fault
// model without a trailer of its own: the model rides in Config.Tag, so a
// non-ssb result round-trips with its model, the entry ends in the CRC of
// every byte before it, and bit-rot in the tag, its length byte, the magic
// or the CRC is rejected. TestCampaignRejectsCrossModelCache covers an
// intact entry renamed into another model's slot.
func TestCacheModelTrailerRoundTrip(t *testing.T) {
	r := &Result{
		Config:    Config{Core: InO, Bench: "x", Tag: "mbu/base", SamplesPerFF: 1, Seed: 5},
		NomCycles: 128,
		NomRet:    64,
		PerFF:     []FFStats{{N: 1, OMM: 1}},
		Totals:    Counts{N: 1, OMM: 1},
	}
	data := encodeCache(r)
	n := len(data) - entryTrailer
	if got := binary.LittleEndian.Uint32(data[n:]); got != crc32.Checksum(data[:n], castagnoli) {
		t.Fatalf("entry does not end in the CRC of its body: % x", data[n:])
	}
	tag, at := r.Config.Tag, entryTagAt(r.Config.Bench)
	if int(data[entryTagLen]) != len(tag) || string(data[at:at+len(tag)]) != tag {
		t.Fatalf("tag %q not at byte %d of % x", tag, at, data)
	}
	got, err := decodeCache(data)
	if err != nil {
		t.Fatal(err)
	}
	if model, base := SplitModelTag(got.Config.Tag); model != "mbu" || base != "base" {
		t.Fatalf("decoded tag %q splits to (%q, %q), want (mbu, base)", got.Config.Tag, model, base)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	for _, i := range []int{0, entryTagLen, at, at + 2, at + 3, at + len(tag) - 1, n, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if _, err := decodeCache(bad); err == nil {
			t.Fatalf("decodeCache accepted an mbu entry corrupted at byte %d", i)
		}
	}
}

// TestCacheSSBFormatPinned pins that ssb entries have no format of their
// own: an ssb result keeps its bare tag in the entry and in the file name,
// and its entry is the mbu entry of the same result with only the tag, its
// length byte and the CRC changed.
func TestCacheSSBFormatPinned(t *testing.T) {
	r := &Result{
		Config:    Config{Core: InO, Bench: "x", Tag: "base", SamplesPerFF: 1, Seed: 5},
		NomCycles: 128,
		NomRet:    64,
		PerFF:     []FFStats{{N: 1}},
		Totals:    Counts{N: 1, Vanished: 1},
	}
	data := encodeCache(r)
	header := binary.LittleEndian.AppendUint32(slices.Clone(entryMagic[:]), ResultsVersion)
	if !bytes.HasPrefix(data, header) {
		t.Fatalf("ssb entry does not open with % x: % x", header, data[:entryHeader])
	}
	got, err := decodeCache(data)
	if err != nil {
		t.Fatal(err)
	}
	if model, base := SplitModelTag(got.Config.Tag); model != DefaultModel || base != "base" {
		t.Fatalf("decoded tag %q splits to (%q, %q), want (ssb, base)", got.Config.Tag, model, base)
	}
	mbu := *r
	mbu.Config.Tag = ModelTag("mbu", r.Config.Tag)
	other := encodeCache(&mbu)
	at := entryTagAt(r.Config.Bench)
	want := sealed(slices.Concat(other[:entryTagLen], []byte{byte(len(r.Config.Tag))},
		other[entryTagLen+1:at], other[at+len("mbu/"):]))
	if !bytes.Equal(data, want) {
		t.Fatalf("ssb entry is not the mbu entry with its tag cut:\ngot  % x\nwant % x", data, want)
	}
	p := tinyProgram(t)
	for cfg, prefix := range map[Config]string{r.Config: "InO-x-base-", mbu.Config: "InO-x-mbu_base-"} {
		name := cacheKey(cfg, p)
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, entryExt) ||
			len(name) != len(prefix)+16+len(entryExt) {
			t.Fatalf("tag %q names its entry %q, want %s<16 hex digits>%s", cfg.Tag, name, prefix, entryExt)
		}
	}
}

// TestPairCampaignDetLatency exercises the detection-latency accounting on
// the campaign-level multi-flip path, the mbu model, whose clusters
// generalize a SEMU pair: every ED injection of a checked mbu campaign must
// contribute to DetLatSum/DetN.
func TestPairCampaignDetLatency(t *testing.T) {
	p := tinyProgram(t)
	// A bounds checker: silent in the nominal run (tiny's values are
	// small), detecting whenever a corrupted register value retires.
	cfg := Config{Core: InO, Bench: "tiny", Tag: "mbu/hooked", SamplesPerFF: 1, Seed: 3}
	res, err := NewInjector().Run(cfg, p, boundsCheckers(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.ED == 0 {
		t.Fatal("bounds checker produced no ED outcomes")
	}
	if res.DetN != int64(res.Totals.ED) {
		t.Fatalf("DetN = %d, want one entry per ED outcome (%d)", res.DetN, res.Totals.ED)
	}
	if res.DetLatSum < 0 {
		t.Fatalf("negative DetLatSum %d", res.DetLatSum)
	}
}

// FuzzScenarioDeterminism is the FaultModel purity fuzz target: for any
// (model, bit, cycle, hash) draw, Expand must return the same scenario
// twice, and the flips it appends must not depend on what dst holds or on
// its capacity — dst is the campaign's reused buffer, so its old contents
// and spare room vary from call to call. Every flip must stay inside the
// flip-flop space, and ssb/mbu/uncore scenarios must contain the struck
// bit.
func FuzzScenarioDeterminism(f *testing.F) {
	f.Add(uint8(0), uint16(3), uint16(100), uint64(12345))
	f.Add(uint8(1), uint16(0), uint16(0), uint64(0))
	f.Add(uint8(2), uint16(900), uint16(7), uint64(1<<40))
	f.Add(uint8(3), uint16(65535), uint16(65535), ^uint64(0))
	names := ModelNames()
	env := EnvFor(InO)
	nBits := SpaceBits(InO)
	f.Fuzz(func(t *testing.T, mi uint8, bitRaw, cycleRaw uint16, h uint64) {
		model := LookupModel(names[int(mi)%len(names)])
		bit := int(bitRaw) % nBits
		if bits := model.Bits(env); bits != nil {
			bit = bits[int(bitRaw)%len(bits)]
		}
		cycle := int(cycleRaw)
		sc1 := model.Expand(env, bit, cycle, h, nil)
		sc2 := model.Expand(env, bit, cycle, h, nil)
		if !slices.Equal(sc1, sc2) {
			t.Fatalf("%s expansion not deterministic: %v vs %v", model.Name(), sc1, sc2)
		}
		// A held prefix must survive untouched ahead of the same flips.
		prefix := Scenario{-1, nBits, bit}
		held := model.Expand(env, bit, cycle, h, slices.Clone(prefix))
		if !slices.Equal(held[:len(prefix)], prefix) || !slices.Equal(held[len(prefix):], sc1) {
			t.Fatalf("%s expansion after %v = %v, want the prefix then %v", model.Name(), prefix, held, sc1)
		}
		// Stale contents past len and any capacity yield the same flips.
		for _, capacity := range []int{0, 1, 64} {
			dirty := make(Scenario, capacity)
			for i := range dirty {
				dirty[i] = int(h>>7) + i
			}
			if got := model.Expand(env, bit, cycle, h, dirty[:0]); !slices.Equal(got, sc1) {
				t.Fatalf("%s expansion into a cap-%d buffer = %v, want %v", model.Name(), capacity, got, sc1)
			}
		}
		struck := false
		for _, fl := range sc1 {
			if fl < 0 || fl >= nBits {
				t.Fatalf("%s flip outside the space: %d", model.Name(), fl)
			}
			if fl == bit {
				struck = true
			}
		}
		if n := model.Name(); (n == "ssb" || n == "mbu" || n == "uncore") && !struck {
			t.Fatalf("%s scenario misses the struck bit %d: %v", n, bit, sc1)
		}
	})
}

// TestCampaignRejectsCrossModelCache plants an mbu entry in the slot an
// ssb campaign reads (a hand-renamed or cross-model-copied file) and checks
// the campaign recomputes instead of serving it: the entry's stored Config
// carries the model in its Tag, so it cannot equal the ssb request.
func TestCampaignRejectsCrossModelCache(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("CLEAR_CACHE_DIR", dir)
	p := tinyProgram(t)

	mbuCfg := Config{Core: InO, Bench: "tiny", Tag: "mbu/base", SamplesPerFF: 1, Seed: 9}
	ssbCfg := Config{Core: InO, Bench: "tiny", Tag: "base", SamplesPerFF: 1, Seed: 9}
	mbuRes, err := NewInjector().Campaign(mbuCfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, cacheKey(ssbCfg, p))
	if err := os.Rename(filepath.Join(dir, cacheKey(mbuCfg, p)), path); err != nil {
		t.Fatal(err)
	}

	in := NewInjector()
	got, err := in.Campaign(ssbCfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := in.Snapshot(); s.CacheHits != 0 || s.CacheMisses != 1 {
		t.Fatalf("injector counters = %+v: the mbu entry in the ssb slot was served", s)
	}
	if got.Config != ssbCfg || reflect.DeepEqual(got.PerFF, mbuRes.PerFF) {
		t.Fatal("ssb campaign returned the planted mbu numbers")
	}
}
