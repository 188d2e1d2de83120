package inject

import (
	"bytes"
	"reflect"
	"testing"

	"clear/internal/archres"
	"clear/internal/isa"
	"clear/internal/prog"
)

// setPacked flips the packed (gang-batched) campaign engine for one test
// and restores the default afterwards.
func setPacked(t testing.TB, on bool) {
	t.Helper()
	prev := Packed
	Packed = on
	t.Cleanup(func() { Packed = prev })
}

// runBothEngines runs the same campaign through the scalar loop and the
// packed engine and returns both results. Each engine must tally exactly
// one injection per sample, Vanished-by-construction strikes included.
func runBothEngines(t testing.TB, cfg Config, p *prog.Program) (scalar, packed *Result) {
	t.Helper()
	run := func(on bool) *Result {
		setPacked(t, on)
		in := NewInjector()
		r, err := in.Run(cfg, p, nil)
		if err != nil {
			t.Fatalf("packed=%v run: %v", on, err)
		}
		if _, total := in.PruneStats(); total != int64(r.Totals.N) {
			t.Fatalf("packed=%v: %d injections tallied, want %d", on, total, r.Totals.N)
		}
		return r
	}
	return run(false), run(true)
}

// requireIdentical asserts two campaign results are equal as values AND as
// cache bytes — the packed engine's contract is byte-identical results, so
// existing testdata/cache entries stay valid whichever engine computed them.
func requireIdentical(t testing.TB, label string, scalar, packed *Result) {
	t.Helper()
	if !reflect.DeepEqual(scalar, packed) {
		t.Fatalf("%s: packed result differs from scalar\nscalar: %+v\npacked: %+v",
			label, scalar.Totals, packed.Totals)
	}
	bs, err := encodeCache(scalar)
	if err != nil {
		t.Fatalf("%s: encode scalar: %v", label, err)
	}
	bp, err := encodeCache(packed)
	if err != nil {
		t.Fatalf("%s: encode packed: %v", label, err)
	}
	if !bytes.Equal(bs, bp) {
		t.Fatalf("%s: cache bytes differ between engines", label)
	}
}

// mixModel is a test-only fault model mixing the planner inputs no
// registered model emits side by side: empty scenarios (Vanished by
// construction) and two- and three-flip scenarios whose flips are not in
// ascending order.
type mixModel struct{}

func (mixModel) Name() string         { return "zmix" }
func (mixModel) Bits(*ModelEnv) []int { return nil }
func (mixModel) Expand(env *ModelEnv, bit, _ int, _ uint64, dst Scenario) Scenario {
	n := env.Pl.Space.NumBits()
	switch bit % 5 {
	case 0:
		return dst
	case 1:
		return append(dst, bit, (bit+n-3)%n, (bit+7)%n)
	default:
		return append(dst, bit, (bit+1)%n)
	}
}

// registerTestModel adds m to the fault-model registry for the duration of
// one test.
func registerTestModel(t testing.TB, m FaultModel) {
	t.Helper()
	RegisterModel(m)
	t.Cleanup(func() {
		modelsMu.Lock()
		delete(models, m.Name())
		modelsMu.Unlock()
	})
}

// TestPackedCampaignEquivalence pins the tentpole contract: for fixed
// seeds, packed campaigns are bit-identical to scalar ones — DeepEqual
// results and identical cache bytes — on both cores, under every
// registered fault model and under mixModel's empty and multi-flip
// scenarios.
func TestPackedCampaignEquivalence(t *testing.T) {
	p := tinyProgram(t)
	registerTestModel(t, mixModel{})
	for _, kind := range []CoreKind{InO, OoO} {
		samples := 2
		if kind == OoO && testing.Short() {
			samples = 1
		}
		for _, tag := range []string{"", "mbu/x", "uncore/x", "set/x", "zmix/x"} {
			cfg := Config{Core: kind, Bench: "tiny", Tag: tag, SamplesPerFF: samples, Seed: 0xC1EA5}
			scalar, packed := runBothEngines(t, cfg, p)
			requireIdentical(t, kind.String()+"/"+tag, scalar, packed)
			if packed.Totals.N == 0 {
				t.Fatalf("%v/%s: campaign ran no injections", kind, tag)
			}
		}
	}
}

// TestPackedCheckpointBoundaries stresses the gang scheduler's window
// edges: an interval of 1 makes every cycle a checkpoint boundary (every
// lane forks at its window's start and is evicted after one lockstep
// cycle), while 32 exercises multi-window gangs, mid-window forks, and
// window-end eviction of survivors.
func TestPackedCheckpointBoundaries(t *testing.T) {
	p := tinyProgram(t)
	for _, interval := range []int{1, 32} {
		setInterval(t, interval)
		for _, kind := range []CoreKind{InO, OoO} {
			cfg := Config{Core: kind, Bench: "tiny", SamplesPerFF: 1, Seed: 0xBEEF}
			scalar, packed := runBothEngines(t, cfg, p)
			requireIdentical(t, kind.String(), scalar, packed)
		}
	}
}

// TestPackedRestrictedPopulation checks the packed engine against the
// uncore model's restricted strike population: results match the scalar
// engine's and no tally lands outside the population (the compact
// per-worker tallies must scatter back to the right bits).
func TestPackedRestrictedPopulation(t *testing.T) {
	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", Tag: "uncore/x", SamplesPerFF: 3, Seed: 7}
	scalar, packed := runBothEngines(t, cfg, p)
	requireIdentical(t, "uncore", scalar, packed)

	pop := map[int]bool{}
	for _, bit := range LookupModel("uncore").Bits(EnvFor(InO)) {
		pop[bit] = true
	}
	if len(pop) == 0 || len(pop) == SpaceBits(InO) {
		t.Fatalf("uncore population degenerate: %d of %d bits", len(pop), SpaceBits(InO))
	}
	want := 0
	for bit, st := range packed.PerFF {
		if !pop[bit] {
			if st != (FFStats{}) {
				t.Fatalf("bit %d outside the strike population has tallies %+v", bit, st)
			}
			continue
		}
		if int(st.N) != cfg.SamplesPerFF {
			t.Fatalf("population bit %d has N=%d, want %d", bit, st.N, cfg.SamplesPerFF)
		}
		want += int(st.N)
	}
	if packed.Totals.N != want {
		t.Fatalf("Totals.N = %d, want %d", packed.Totals.N, want)
	}
}

// fuzzCampaignProgram derives a small halting program from fuzz bytes: a
// bounded loop whose body is fuzz-chosen ALU/memory work, ending in an
// observable output. Every generated program assembles and halts, so the
// fuzzer explores campaign behavior, not assembler rejections.
func fuzzCampaignProgram(t testing.TB, data []byte) *prog.Program {
	t.Helper()
	b := isa.NewBuilder()
	b.Li(1, 1)
	b.Li(2, 5)
	b.Li(5, 0)
	b.Li(6, int32(2+len(data)%9)) // 2..10 iterations
	b.Label("loop")
	body := data
	if len(body) > 10 {
		body = body[:10]
	}
	for _, d := range body {
		rd := uint8(1 + (d>>3)%4) // r1..r4
		rs := uint8(1 + (d>>5)%4)
		switch d % 7 {
		case 0:
			b.Add(rd, rd, rs)
		case 1:
			b.Xor(rd, rd, rs)
		case 2:
			b.Addi(rd, rs, int32(d%16))
		case 3:
			b.Mul(rd, rd, rs)
		case 4:
			b.Sw(rd, 0, int32(d%8))
		case 5:
			b.Lw(rd, 0, int32(d%8))
		default:
			b.Slt(rd, rs, rd)
		}
	}
	b.Addi(5, 5, 1)
	b.Bne(5, 6, "loop")
	b.Out(1)
	b.Out(2)
	b.Out(3)
	b.Halt()
	p, err := prog.New("fuzzpacked", b.Items(), nil, 16)
	if err != nil {
		t.Fatalf("assemble fuzz program: %v", err)
	}
	if err := p.ComputeExpected(100_000); err != nil {
		t.Fatalf("golden run: %v", err)
	}
	return p
}

// FuzzPackedEquivalence is the property behind the packed engine: for an
// arbitrary generated program, core, registered fault model, and checkpoint
// interval — including interval 1, where every lane hits a window boundary
// after one cycle, and the divergence-eviction edges any failing lane takes —
// the packed campaign must equal the scalar one bit for bit. Selector bit 5
// attaches the DFC checker: the cold hooked campaign (every injection from
// reset with a fresh checker), the warm scalar checked one and the packed
// checked one must then all agree.
func FuzzPackedEquivalence(f *testing.F) {
	f.Add([]byte{}, uint64(1), uint8(0))
	f.Add([]byte{0x11, 0x47, 0xA3, 0x09, 0xEE}, uint64(0xC1EA5), uint8(3))
	f.Add([]byte{0xFF, 0x80, 0x42}, uint64(99), uint8(5))
	f.Add([]byte{0x07, 0x31}, uint64(0xDEAD), uint8(14))
	f.Add([]byte{0x11, 0x47, 0xA3, 0x09, 0xEE}, uint64(0xC1EA5), uint8(0x20|0x08))
	f.Add([]byte{0x3C, 0x05, 0x92}, uint64(7), uint8(0x20|0x01|0x02))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, sel uint8) {
		p := fuzzCampaignProgram(t, data)
		kind := InO
		if sel&1 != 0 {
			kind = OoO
		}
		tag := []string{"", "mbu/f", "uncore/f", "set/f"}[(sel>>1)%4]
		setInterval(t, []int{1, 32, 64, 256}[(sel>>3)%4])
		cfg := Config{Core: kind, Bench: "fuzzpacked", Tag: tag, SamplesPerFF: 1, Seed: seed}
		if sel&0x20 == 0 {
			scalar, packed := runBothEngines(t, cfg, p)
			if !reflect.DeepEqual(scalar, packed) {
				t.Fatalf("%v/%s interval=%d: packed differs from scalar\nscalar: %+v\npacked: %+v",
					kind, tag, CheckpointInterval, scalar.Totals, packed.Totals)
			}
			return
		}
		cold, err := NewInjector().Run(cfg, p, archres.DFCHookFactory())
		if err != nil {
			t.Fatalf("cold hooked run: %v", err)
		}
		for _, on := range []bool{false, true} {
			setPacked(t, on)
			warm, err := NewInjector().RunChecked(cfg, p, archres.NewDFCChecker)
			if err != nil {
				t.Fatalf("checked run (packed=%v): %v", on, err)
			}
			if !reflect.DeepEqual(cold, warm) {
				t.Fatalf("%v/%s interval=%d packed=%v: checked differs from cold hooked\ncold: %+v\nwarm: %+v",
					kind, tag, CheckpointInterval, on, cold.Totals, warm.Totals)
			}
		}
	})
}
