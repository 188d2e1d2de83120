package inject

import (
	"bytes"
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"clear/internal/archres"
	"clear/internal/bench"
	"clear/internal/isa"
	"clear/internal/prog"
	"clear/internal/sim"
)

// noopChecker is a stateless checker that never detects: a campaign it
// checks runs the checked gang engine and must produce exactly the
// unchecked campaign's Result.
type noopChecker struct{}

func noopCheckers(*prog.Program) sim.Checker { return noopChecker{} }

func (noopChecker) Observe(sim.CommitEvent) bool { return false }
func (noopChecker) Clone() sim.Checker           { return noopChecker{} }
func (noopChecker) CopyFrom(sim.Checker)         {}
func (noopChecker) Equal(sim.Checker) bool       { return true }

// referenceCampaign is the tests' oracle for Injector.Run. It shares no
// planning or scheduling code with the engine: it performs the nominal run,
// draws every (bit, sample) of the strike population from the documented
// splitmix64 stream — h = splitmix64(Seed ^ bit<<20 ^ sample), cycle =
// h mod nomCycles — expands each draw through the fault model, runs every
// non-empty scenario from reset through the cold body on one core, and
// tallies it the way the engine's tally.add does. cf, when non-nil,
// attaches a fresh checker to the nominal run and to every injection;
// sink, when non-nil, receives every run's record.
func referenceCampaign(t testing.TB, cfg Config, p *prog.Program,
	cf func(*prog.Program) sim.Checker, sink RecordSink) *Result {
	t.Helper()
	nom := NewCore(cfg.Core, p)
	if cf != nil {
		nom.SetCommitHook(cf(p).Observe)
	}
	nomRes := nom.Run(nomBudget)
	if nomRes.Status != prog.StatusHalted || !p.OutputsEqual(nomRes.Output) {
		t.Fatalf("reference nominal run: %v", nomRes.Status)
	}
	modelName, _ := SplitModelTag(cfg.Tag)
	model, env := LookupModel(modelName), EnvFor(cfg.Core)
	bits := model.Bits(env)
	if bits == nil {
		for bit := 0; bit < SpaceBits(cfg.Core); bit++ {
			bits = append(bits, bit)
		}
	}
	res := &Result{Config: cfg, NomCycles: nomRes.Steps, NomRet: nom.Retired(),
		PerFF: make([]FFStats, SpaceBits(cfg.Core))}
	c, rec := NewCore(cfg.Core, p), newRecorder(sink)
	for _, bit := range bits {
		for s := 0; s < cfg.SamplesPerFF; s++ {
			h := splitmix64(cfg.Seed ^ uint64(bit)<<20 ^ uint64(s))
			cycle := int(h % uint64(res.NomCycles))
			out, det := Vanished, -1
			if sc := model.Expand(env, bit, cycle, h, nil); len(sc) > 0 {
				out, det = runCold(rec, c, p, sc, cycle, res.NomCycles, cf)
			}
			st := &res.PerFF[bit]
			st.N++
			switch out {
			case OMM:
				st.OMM++
			case UT:
				st.UT++
			case Hang:
				st.Hang++
			case ED:
				st.ED++
				if det >= cycle {
					res.DetLatSum += int64(det - cycle)
					res.DetN++
				}
			}
			res.Totals.Add(out)
		}
	}
	return res
}

// runCampaign runs cfg through a fresh injector whose reference spacing is
// interval (0 keeps CheckpointInterval). The injector must tally exactly
// one injection per sample, Vanished-by-construction strikes included.
func runCampaign(t testing.TB, cfg Config, p *prog.Program, interval int,
	cf func(*prog.Program) sim.Checker) *Result {
	t.Helper()
	in := NewInjector()
	in.interval = interval
	r, err := in.Run(cfg, p, cf)
	if err != nil {
		t.Fatalf("interval=%d run: %v", interval, err)
	}
	if total := in.Snapshot().TotalInjections; total != int64(r.Totals.N) {
		t.Fatalf("interval=%d: %d injections tallied, want %d", interval, total, r.Totals.N)
	}
	return r
}

// requireIdentical asserts a campaign result equals the reference's as a
// value AND as cache bytes — the engine's contract is byte-identical
// results, so existing cache entries stay valid.
func requireIdentical(t testing.TB, label string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: campaign differs from the reference\nreference: %+v\ncampaign:  %+v",
			label, want.Totals, got.Totals)
	}
	bw, err := encodeCache(want)
	if err != nil {
		t.Fatalf("%s: encode reference: %v", label, err)
	}
	bg, err := encodeCache(got)
	if err != nil {
		t.Fatalf("%s: encode campaign: %v", label, err)
	}
	if !bytes.Equal(bw, bg) {
		t.Fatalf("%s: cache bytes differ from the reference", label)
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

// strideModel is a test-only single-bit model whose strike population is
// every k-th flip-flop, so a real benchmark's reference campaign stays
// short.
type strideModel struct{ k int }

func (strideModel) Name() string { return "zstride" }
func (m strideModel) Bits(env *ModelEnv) []int {
	var bits []int
	for bit := 0; bit < env.Pl.Space.NumBits(); bit += m.k {
		bits = append(bits, bit)
	}
	return bits
}
func (strideModel) Expand(_ *ModelEnv, bit, _ int, _ uint64, dst Scenario) Scenario {
	return append(dst, bit)
}

// TestPackedCampaignEquivalence pins the engine's contract: for fixed
// seeds, campaigns are bit-identical to the reference campaign — DeepEqual
// results and identical cache bytes — on both cores, under every
// registered fault model and under mixModel's empty and multi-flip
// scenarios. The tiny program's runs end before a tail reaches two
// checkpoint boundaries, so the deadlock rule never fires on it; a last
// case runs inner_product on OoO, whose campaign decides deadlocked lanes
// Hang at a boundary (finishInjected) and still equals the reference,
// which steps every Hang to the budget.
func TestPackedCampaignEquivalence(t *testing.T) {
	p := tinyProgram(t)
	registerTestModel(t, mixModel{})
	registerTestModel(t, strideModel{k: 3})
	for _, kind := range []CoreKind{InO, OoO} {
		samples := 2
		if kind == OoO && testing.Short() {
			samples = 1
		}
		for _, tag := range []string{"", "mbu/x", "uncore/x", "set/x", "zmix/x"} {
			cfg := Config{Core: kind, Bench: "tiny", Tag: tag, SamplesPerFF: samples, Seed: 0xC1EA5}
			got := runCampaign(t, cfg, p, 0, nil)
			requireIdentical(t, kind.String()+"/"+tag, referenceCampaign(t, cfg, p, nil, nil), got)
			if got.Totals.N == 0 {
				t.Fatalf("%v/%s: campaign ran no injections", kind, tag)
			}
		}
	}

	ip := bench.ByName("inner_product").MustProgram()
	cfg := Config{Core: OoO, Bench: "inner_product", Tag: "zstride/x", SamplesPerFF: 1, Seed: 0xC1EA5}
	in := NewInjector()
	got, err := in.Run(cfg, ip, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "OoO/inner_product/zstride", referenceCampaign(t, cfg, ip, nil, nil), got)
	s := in.Snapshot()
	if s.DeadlockedInjections == 0 || s.DeadlockedInjections > int64(got.Totals.Hang) {
		t.Fatalf("OoO/inner_product: %d injections decided deadlocked of %d Hang; want 0 < deadlocked <= Hang",
			s.DeadlockedInjections, got.Totals.Hang)
	}
	t.Logf("OoO/inner_product: %d of %d Hang decided deadlocked; %d injections, %d pruned",
		s.DeadlockedInjections, got.Totals.Hang, s.TotalInjections, s.PrunedInjections)
}

// TestPackedCheckpointBoundaries stresses the gang scheduler's window
// edges: an interval of 1 makes every cycle a checkpoint boundary (every
// lane forks at its window's start and is evicted after one lockstep
// cycle), while 32 exercises multi-window gangs, mid-window forks, and
// window-end eviction of survivors.
func TestPackedCheckpointBoundaries(t *testing.T) {
	p := tinyProgram(t)
	for _, kind := range []CoreKind{InO, OoO} {
		cfg := Config{Core: kind, Bench: "tiny", SamplesPerFF: 1, Seed: 0xBEEF}
		want := referenceCampaign(t, cfg, p, nil, nil)
		for _, interval := range []int{1, 32} {
			requireIdentical(t, fmt.Sprintf("%v interval=%d", kind, interval), want,
				runCampaign(t, cfg, p, interval, nil))
		}
	}
}

// TestPackedRestrictedPopulation checks the engine against the uncore
// model's restricted strike population: results match the reference and no
// tally lands outside the population (the compact per-worker tallies must
// scatter back to the right bits).
func TestPackedRestrictedPopulation(t *testing.T) {
	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", Tag: "uncore/x", SamplesPerFF: 3, Seed: 7}
	got := runCampaign(t, cfg, p, 0, nil)
	requireIdentical(t, "uncore", referenceCampaign(t, cfg, p, nil, nil), got)

	pop := map[int]bool{}
	for _, bit := range LookupModel("uncore").Bits(EnvFor(InO)) {
		pop[bit] = true
	}
	if len(pop) == 0 || len(pop) == SpaceBits(InO) {
		t.Fatalf("uncore population degenerate: %d of %d bits", len(pop), SpaceBits(InO))
	}
	want := 0
	for bit, st := range got.PerFF {
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
	if got.Totals.N != want {
		t.Fatalf("Totals.N = %d, want %d", got.Totals.N, want)
	}
}

// inertModel is a test-only single-bit model whose strike population is
// the core's inert flip-flops.
type inertModel struct{}

func (inertModel) Name() string { return "zinert" }
func (inertModel) Bits(env *ModelEnv) []int {
	var bits []int
	for bit := 0; bit < env.Pl.Space.NumBits(); bit++ {
		if env.Pl.Space.Inert(bit) {
			bits = append(bits, bit)
		}
	}
	return bits
}
func (inertModel) Expand(_ *ModelEnv, bit, _ int, _ uint64, dst Scenario) Scenario {
	return append(dst, bit)
}

// TestInertStrikesCounted pins the injections.inert counter on both cores.
// An ssb campaign decides exactly (inert bits × SamplesPerFF) injections at
// their fork. A campaign over the inert bits alone decides every injection
// that way, all Vanished, and prunes none: inert decisions are not prunes.
func TestInertStrikesCounted(t *testing.T) {
	p := tinyProgram(t)
	registerTestModel(t, inertModel{})
	const samples = 2
	for _, kind := range []CoreKind{InO, OoO} {
		inertBits := len(inertModel{}.Bits(EnvFor(kind)))
		if inertBits == 0 {
			t.Fatalf("%v declares no inert flip-flops", kind)
		}
		want := int64(inertBits * samples)
		for _, tag := range []string{"", "zinert/x"} {
			in := NewInjector()
			res, err := in.Run(Config{Core: kind, Bench: "tiny", Tag: tag, SamplesPerFF: samples, Seed: 0x1AE7}, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			s := in.Snapshot()
			if s.InertInjections != want {
				t.Fatalf("%v/%q: %d injections decided inert, want %d inert bits × %d samples = %d",
					kind, tag, s.InertInjections, inertBits, samples, want)
			}
			if s.TotalInjections != int64(res.Totals.N) || s.PrunedInjections+s.InertInjections+s.DeadInjections > s.TotalInjections {
				t.Fatalf("%v/%q: counters %+v do not add up to %d injections", kind, tag, s, res.Totals.N)
			}
			if tag == "" {
				continue
			}
			if s.PrunedInjections != 0 || res.Totals.Vanished != res.Totals.N || int64(res.Totals.N) != want {
				t.Fatalf("%v: inert-only campaign pruned %d and tallied %+v, want no prunes and %d Vanished",
					kind, s.PrunedInjections, res.Totals, want)
			}
		}
	}
}

// deadRecount counts, independently of the engine, the samples of cfg that
// the engine must decide dead at their fork: scenarios with a flip outside
// the inert flip-flops and every such flip dead in a fault-free core at the
// sample's cycle. It draws the samples like referenceCampaign and steps one
// fresh core from reset through their cycles in order, asking Dead for
// every non-inert flip.
func deadRecount(t testing.TB, cfg Config, p *prog.Program) int64 {
	t.Helper()
	nomCycles := NewCore(cfg.Core, p).Run(nomBudget).Steps
	modelName, _ := SplitModelTag(cfg.Tag)
	model, env := LookupModel(modelName), EnvFor(cfg.Core)
	notInert := func(b int) bool { return !env.Pl.Space.Inert(b) }
	type strike struct {
		cycle int
		sc    Scenario
	}
	var strikes []strike
	for bit := 0; bit < SpaceBits(cfg.Core); bit++ {
		for s := 0; s < cfg.SamplesPerFF; s++ {
			h := splitmix64(cfg.Seed ^ uint64(bit)<<20 ^ uint64(s))
			cycle := int(h % uint64(nomCycles))
			if sc := model.Expand(env, bit, cycle, h, nil); slices.ContainsFunc(sc, notInert) {
				strikes = append(strikes, strike{cycle, sc})
			}
		}
	}
	slices.SortStableFunc(strikes, func(a, b strike) int { return cmp.Compare(a.cycle, b.cycle) })
	c := NewCore(cfg.Core, p).(sim.GangCore)
	live := func(b int) bool { return notInert(b) && !c.Dead(b) }
	var n int64
	for _, st := range strikes {
		for c.Cycles() < st.cycle {
			c.Step()
		}
		if !slices.ContainsFunc(st.sc, live) {
			n++
		}
	}
	return n
}

// TestDeadStrikesCounted pins the injections.dead counter: OoO ssb and mbu
// campaigns decide exactly the samples deadRecount finds dead, InO decides
// none, and the results stay identical to the reference campaign.
func TestDeadStrikesCounted(t *testing.T) {
	p := tinyProgram(t)
	for _, kind := range []CoreKind{InO, OoO} {
		for _, tag := range []string{"", "mbu/x"} {
			cfg := Config{Core: kind, Bench: "tiny", Tag: tag, SamplesPerFF: 2, Seed: 0xDEAD}
			in := NewInjector()
			res, err := in.Run(cfg, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			what := kind.String() + "/" + tag
			requireIdentical(t, what, referenceCampaign(t, cfg, p, nil, nil), res)
			want := deadRecount(t, cfg, p)
			if (kind == InO) != (want == 0) {
				t.Fatalf("%s: recount found %d dead samples", what, want)
			}
			s := in.Snapshot()
			if s.DeadInjections != want {
				t.Fatalf("%s: %d injections decided dead, recount finds %d", what, s.DeadInjections, want)
			}
			if s.PrunedInjections+s.InertInjections+s.DeadInjections > s.TotalInjections {
				t.Fatalf("%s: counters %+v exceed the injections run", what, s)
			}
			t.Logf("%s: %d of %d injections decided dead", what, s.DeadInjections, s.TotalInjections)
		}
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

// FuzzPackedEquivalence is the property behind the campaign engine: for an
// arbitrary generated program, core, registered fault model, and checkpoint
// interval — including interval 1, where every lane hits a window boundary
// after one cycle, and the divergence-eviction edges any failing lane takes —
// the campaign must equal the reference campaign bit for bit. Selector bit 5
// attaches the DFC checker: the checked campaign on the gang engine must
// then equal the checked reference, which replays every injection from
// reset with a fresh checker.
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
		interval := []int{1, 32, 64, 256}[(sel>>3)%4]
		cfg := Config{Core: kind, Bench: "fuzzpacked", Tag: tag, SamplesPerFF: 1, Seed: seed}
		var cf func(*prog.Program) sim.Checker
		if sel&0x20 != 0 {
			cf = archres.NewDFCChecker
		}
		want := referenceCampaign(t, cfg, p, cf, nil)
		if got := runCampaign(t, cfg, p, interval, cf); !reflect.DeepEqual(want, got) {
			t.Fatalf("%v/%s interval=%d checked=%v: campaign differs from the reference\nreference: %+v\ncampaign:  %+v",
				kind, tag, interval, cf != nil, want.Totals, got.Totals)
		}
	})
}
