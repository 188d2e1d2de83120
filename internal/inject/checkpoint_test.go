package inject

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"clear/internal/bench"
	"clear/internal/prog"
	"clear/internal/sim"
)

// boundsChecker is a stateful commit-stream checker modeled on an
// architecture-level value checker: it counts retired instructions and
// flags any committed result, past the first, above a bound the fault-free
// run never reaches. The counter is state a warm start must restore and a
// prune must compare.
type boundsChecker struct {
	bound uint32
	n     int
}

// boundsCheckers returns a factory of fresh boundsCheckers for bound.
func boundsCheckers(bound uint32) func(*prog.Program) sim.Checker {
	return func(*prog.Program) sim.Checker { return &boundsChecker{bound: bound} }
}

func (b *boundsChecker) Observe(ev sim.CommitEvent) bool {
	b.n++
	return b.n > 1 && ev.Result > b.bound
}

func (b *boundsChecker) Clone() sim.Checker {
	c := *b
	return &c
}

func (b *boundsChecker) CopyFrom(src sim.Checker) { *b = *src.(*boundsChecker) }
func (b *boundsChecker) Equal(o sim.Checker) bool { return *b == *o.(*boundsChecker) }

// TestRunOneFromEquivalence drives a randomized grid of (bit, cycle)
// injection points through both the from-reset and the checkpointed path on
// both cores and requires identical (Outcome, detectCycle) classifications.
func TestRunOneFromEquivalence(t *testing.T) {
	p := tinyProgram(t)
	for _, kind := range []CoreKind{InO, OoO} {
		ref, nomRes, err := BuildReference(kind, p, 16, 100000)
		if err != nil {
			t.Fatalf("%v BuildReference: %v", kind, err)
		}
		if nomRes.Status != prog.StatusHalted {
			t.Fatalf("%v nominal run failed: %v", kind, nomRes.Status)
		}
		nom := nomRes.Steps
		if len(ref.Ckpts) < 2 {
			t.Fatalf("%v: want several checkpoints, got %d (nominal %d cycles)",
				kind, len(ref.Ckpts), nom)
		}
		direct := NewCore(kind, p)
		warm := NewCore(kind, p)
		in := NewInjector()
		nBits := SpaceBits(kind)
		for s := 0; s < 300; s++ {
			h := splitmix64(uint64(s) ^ 0xFEED)
			bit := int(h % uint64(nBits))
			cycle := int((h >> 24) % uint64(nom))
			o1, d1 := RunOne(direct, p, bit, cycle, nom, nil)
			o2, d2 := in.RunOneFrom(warm, p, ref, bit, cycle, nom, nil)
			if o1 != o2 || d1 != d2 {
				t.Fatalf("%v bit=%d cycle=%d: from-reset (%v,%d) vs checkpointed (%v,%d)",
					kind, bit, cycle, o1, d1, o2, d2)
			}
		}
		// checked runs, whose checker state the reference does not save,
		// must keep the exact from-reset path and still agree
		// classification-for-classification
		for s := 0; s < 50; s++ {
			h := splitmix64(uint64(s) ^ 0xB00F)
			bit := int(h % uint64(nBits))
			cycle := int((h >> 24) % uint64(nom))
			cf := boundsCheckers(1 << 20)
			o1, d1 := RunOne(direct, p, bit, cycle, nom, cf)
			o2, d2 := in.RunOneFrom(warm, p, ref, bit, cycle, nom, cf)
			if o1 != o2 || d1 != d2 {
				t.Fatalf("%v checked bit=%d cycle=%d: (%v,%d) vs (%v,%d)",
					kind, bit, cycle, o1, d1, o2, d2)
			}
		}
	}
}

// TestCampaignBitIdentical asserts that a fixed-seed campaign produces a
// byte-identical Result to the reference campaign's from-reset replay
// whatever the checkpoint interval, so a cached entry is valid whichever
// interval computed it.
func TestCampaignBitIdentical(t *testing.T) {
	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", SamplesPerFF: 2, Seed: 0xC1EA5}
	encode := func(r *Result) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(r); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := encode(referenceCampaign(t, cfg, p, nil, nil))
	for _, interval := range []int{64, 256, 1024} {
		if !bytes.Equal(want, encode(runCampaign(t, cfg, p, interval, nil))) {
			t.Fatalf("interval %d: campaign result differs from the from-reset reference", interval)
		}
	}
}

// TestCampaignBitIdenticalHooked covers checked campaigns, which run warm
// on the gang engine with the checker's state saved, restored and compared
// beside the core's. Checked by the stateful boundsChecker, a campaign must
// equal the checked reference campaign, which replays every injection from
// reset with a fresh checker, and must prune; checked by a checker that
// never fires, it must be byte-identical to the unchecked campaign.
func TestCampaignBitIdenticalHooked(t *testing.T) {
	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", SamplesPerFF: 1, Seed: 7}
	cf := boundsCheckers(1 << 20)
	in := NewInjector()
	got, err := in.Run(cfg, p, cf)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "boundsChecker", referenceCampaign(t, cfg, p, cf, nil), got)
	if got.Totals.ED == 0 || in.Snapshot().PrunedInjections == 0 {
		t.Fatalf("boundsChecker campaign detected %d and pruned %d; it must do both",
			got.Totals.ED, in.Snapshot().PrunedInjections)
	}
	requireIdentical(t, "no-op checker", runCampaign(t, cfg, p, 0, nil), runCampaign(t, cfg, p, 0, noopCheckers))
}

func TestSamplesPerFFRange(t *testing.T) {
	p := tinyProgram(t)
	for _, n := range []int{70000, 1 << 16, -1} {
		cfg := Config{Core: InO, Bench: "tiny", SamplesPerFF: n, Seed: 1}
		if _, err := NewInjector().Run(cfg, p, nil); err == nil {
			t.Fatalf("SamplesPerFF=%d: want counter-range error, got nil", n)
		}
	}
}

// TestRunValidation pins the campaign prologue's input checking: a
// program without golden output, a negative sample count, and the first
// sample count past the uint16 per-flip-flop counters must all fail up
// front rather than mid-campaign, whether the campaign is checked or not.
func TestRunValidation(t *testing.T) {
	p := tinyProgram(t)
	noGolden := &prog.Program{Name: "nogolden", MemWords: 16}
	for _, tc := range []struct {
		name    string
		p       *prog.Program
		samples int
	}{
		{"no golden output", noGolden, 1},
		{"negative samples", p, -1},
		{"65536 samples", p, 1 << 16},
	} {
		for _, cf := range []func(*prog.Program) sim.Checker{nil, noopCheckers} {
			cfg := Config{Core: InO, Bench: "tiny", SamplesPerFF: tc.samples, Seed: 1}
			if _, err := NewInjector().Run(cfg, tc.p, cf); err == nil {
				t.Errorf("%s (checked=%v): Run accepted it", tc.name, cf != nil)
			}
		}
	}
}

// TestCampaignCacheRejectsForeign plants a decodable-but-foreign result at a
// campaign's cache path (simulating a key collision or a hand-edited file)
// and asserts the campaign is regenerated rather than silently served
// another configuration's statistics.
func TestCampaignCacheRejectsForeign(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("CLEAR_CACHE_DIR", dir)
	p := tinyProgram(t)

	cfgA := Config{Core: InO, Bench: "tiny", SamplesPerFF: 1, Seed: 1}
	rA, err := NewInjector().Campaign(cfgA, p, nil)
	if err != nil {
		t.Fatal(err)
	}

	plant := func(r *Result, path string) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(f).Encode(r); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	// foreign Config at cfgB's path: must be rejected and regenerated
	cfgB := cfgA
	cfgB.Seed = 2
	pathB := filepath.Join(dir, cacheKey(cfgB, p))
	plant(rA, pathB)
	rB, err := NewInjector().Campaign(cfgB, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rB.Config != cfgB {
		t.Fatalf("cache returned foreign campaign: Config %+v, want %+v", rB.Config, cfgB)
	}

	// matching Config but implausible NomCycles: also stale
	forged := *rB
	forged.NomCycles = 0
	plant(&forged, pathB)
	rB2, err := NewInjector().Campaign(cfgB, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rB2.NomCycles == 0 {
		t.Fatal("cache returned result with NomCycles=0")
	}
	if rB2.Totals != rB.Totals {
		t.Fatalf("regenerated campaign differs: %+v vs %+v", rB2.Totals, rB.Totals)
	}
}

// BenchmarkCampaign measures the full campaign loop on the tiny program on
// both cores.
func BenchmarkCampaign(b *testing.B) {
	p := tinyProgram(b)
	for _, kind := range []CoreKind{InO, OoO} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := Config{Core: kind, Bench: "tiny", SamplesPerFF: 1, Seed: 0xC1EA5}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewInjector().Run(cfg, p, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCampaignInO measures the full InO baseline campaign on a real
// benchmark program, from reset (the reference campaign sends every
// injection through the cold body on one core) versus checkpointed. The
// checkpointed engine's speedup comes from warm-starting each gang near its
// sampled cycles, sharing the window prefix across the gang, pruning, and
// running on every CPU.
func BenchmarkCampaignInO(b *testing.B) {
	p := bench.ByName("gzip").MustProgram()
	cfg := Config{Core: InO, Bench: "gzip", SamplesPerFF: 1, Seed: 0xC1EA5}
	b.Run("from-reset", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceCampaign(b, cfg, p, nil, nil)
		}
	})
	b.Run("checkpointed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewInjector().Run(cfg, p, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCampaignOoO measures a full OoO campaign on a real benchmark
// program, gzip, at 1 sample per flip-flop, under the single-bit model and
// the mbu model, as campaign-ooo runs them: the path the fork decisions,
// the masked boundary Matches and the deadlock rule shorten.
func BenchmarkCampaignOoO(b *testing.B) {
	p := bench.ByName("gzip").MustProgram()
	for _, tag := range []string{"", "mbu/base"} {
		model, _ := SplitModelTag(tag)
		b.Run(model, func(b *testing.B) {
			cfg := Config{Core: OoO, Bench: "gzip", Tag: tag, SamplesPerFF: 1, Seed: 0xC1EA5}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewInjector().Run(cfg, p, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildReferenceRejectsBadInterval checks that a non-positive interval
// returns an error instead of panicking with a division by zero.
func TestBuildReferenceRejectsBadInterval(t *testing.T) {
	p := tinyProgram(t)
	for _, interval := range []int{0, -1, -256} {
		if _, _, err := BuildReference(InO, p, interval, 100000); err == nil {
			t.Errorf("BuildReference(interval=%d): want error, got nil", interval)
		}
	}
	if _, _, err := BuildReference(InO, p, 16, 100000); err != nil {
		t.Errorf("BuildReference(interval=16): unexpected error %v", err)
	}
}
