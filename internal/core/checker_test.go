package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"clear/internal/bench"
	"clear/internal/inject"
	"clear/internal/prog"
	"clear/internal/sim"
	"clear/internal/technique"
)

// hookedTags returns one variant per distinct hook-carrying campaign tag
// that enumerates on a core, in enumeration order.
func hookedTags(kind inject.CoreKind) []Variant {
	seen := map[string]bool{}
	var vs []Variant
	for _, c := range Enumerate(kind) {
		if c.Variant.hookFactory() == nil || seen[c.Variant.Tag()] {
			continue
		}
		seen[c.Variant.Tag()] = true
		vs = append(vs, c.Variant)
	}
	return vs
}

// cachedCampaign runs one campaign through a fresh cache directory and
// returns the result with the bytes of the cache entry it wrote.
func cachedCampaign(t *testing.T, run func() (*inject.Result, error)) (*inject.Result, []byte) {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("CLEAR_CACHE_DIR", dir)
	r, err := run()
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.gob"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want one cache entry, got %v (%v)", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	return r, data
}

// TestCheckedCampaignEquivalence is the checkpointable-checker contract:
// for every hook-carrying tag that enumerates on each core, under the fault
// models, the warm-started, pruned campaign on the gang engine returns a
// Result DeepEqual to — and writes cache bytes identical to — the cold
// hooked path that replays every injection from reset with a fresh checker.
//
// Every tag runs under all four models, except that OoO tags with an ABFT
// kernel run only under uncore and set: a from-reset OoO ssb or mbu
// campaign costs about two seconds, and a transformed program meets the
// checker path the same way on both cores — the InO tags cover every
// transform with DFC under all four models, and the untransformed OoO tags
// cover mon, dfc and dfc+mon under all four. A race-detector build runs a
// sample that still drives the checked gang workers on both cores: InO dfc
// under all four models and OoO dfc+mon under uncore and set.
func TestCheckedCampaignEquivalence(t *testing.T) {
	b := bench.ByName("inner_product")
	for _, kind := range []inject.CoreKind{inject.InO, inject.OoO} {
		e := NewEngine(kind)
		vs := hookedTags(kind)
		if len(vs) == 0 {
			t.Fatalf("%v: no hook-carrying tags enumerate", kind)
		}
		for _, v := range vs {
			p, err := e.BuildProgram(b, v)
			if err != nil {
				t.Fatal(err)
			}
			cf := v.checkerFactory()
			if cf == nil {
				t.Fatalf("%v/%s: built-in checkers must be checkpointable", kind, v.Tag())
			}
			for _, model := range inject.ModelNames() {
				cheap := model == "uncore" || model == "set"
				if kind == inject.OoO && v.ABFT != ABFTNone && !cheap {
					continue
				}
				if raceEnabled && !(kind == inject.InO && v.Tag() == "dfc" ||
					kind == inject.OoO && v.ABFT == ABFTNone && v.DFC && v.Monitor && cheap) {
					continue
				}
				cfg := inject.Config{Core: kind, Bench: b.Name, Tag: inject.ModelTag(model, v.Tag()),
					SamplesPerFF: 1, Seed: 0xC1EA5}
				label := kind.String() + "/" + cfg.Tag
				cold, coldBytes := cachedCampaign(t, func() (*inject.Result, error) {
					return e.Inj.Campaign(cfg, p, v.hookFactory())
				})
				warm, warmBytes := cachedCampaign(t, func() (*inject.Result, error) {
					return e.Inj.CampaignChecked(cfg, p, cf)
				})
				if !reflect.DeepEqual(cold, warm) {
					t.Fatalf("%s: checked result differs from cold hooked\ncold: %+v\nwarm: %+v",
						label, cold.Totals, warm.Totals)
				}
				if !bytes.Equal(coldBytes, warmBytes) {
					t.Fatalf("%s: cache bytes differ", label)
				}
				if cold.Totals.ED == 0 {
					t.Fatalf("%s: checker detected nothing; the campaign does not exercise it", label)
				}
			}
		}
	}
}

// opaqueHooker is a third-party architecture-layer checker that exposes
// only a closure hook, so its state cannot be saved.
type opaqueHooker struct{ technique.Info }

func (opaqueHooker) Hook(*prog.Program) sim.CommitHook {
	return func(sim.CommitEvent) bool { return false }
}

// TestCheckerFactoryNeedsEveryHooker pins the all-or-nothing rule: a
// variant gets a checker factory only when every active hooker can save its
// state — one opaque hook keeps the whole chain on the cold path — and
// several checkpointable checkers run as one chain.
func TestCheckerFactoryNeedsEveryHooker(t *testing.T) {
	if (Variant{}).checkerFactory() != nil {
		t.Fatal("hookless variant has a checker factory")
	}
	reg := technique.Default()
	if err := reg.Register(opaqueHooker{technique.Info{TechName: "Opaque", TechLayer: technique.Architecture}}); err != nil {
		t.Fatal(err)
	}
	defer reg.Unregister("Opaque")
	mixed := Variant{DFC: true, Extra: []string{"Opaque"}}
	if mixed.hookFactory() == nil || mixed.checkerFactory() != nil {
		t.Fatal("a variant with an opaque hook must keep the hook factory and get no checker factory")
	}
	p := bench.ByName("inner_product").MustProgram()
	single := Variant{DFC: true}.checkerFactory()
	if _, chain := single(p).(checkerChain); chain {
		t.Fatal("a single checker should not be wrapped in a chain")
	}
	both := Variant{DFC: true, Monitor: true}.checkerFactory()
	if c, ok := both(p).(checkerChain); !ok || len(c) != 2 {
		t.Fatalf("dfc+mon checker = %T, want a two-checker chain", both(p))
	}
}
