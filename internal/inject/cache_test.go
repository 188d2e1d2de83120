package inject

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"clear/internal/prog"
	"clear/internal/sim"
)

// TestCacheDir pins where campaigns are cached: $CLEAR_CACHE_DIR when it
// is set, else "clear" under the user cache directory, which honours
// XDG_CACHE_HOME on Unix systems other than Darwin, else a temp dir when
// there is no user cache directory.
func TestCacheDir(t *testing.T) {
	t.Setenv("CLEAR_CACHE_DIR", "")
	xdg := t.TempDir()
	t.Setenv("XDG_CACHE_HOME", xdg)
	switch runtime.GOOS {
	case "darwin", "ios", "windows", "plan9":
	default:
		if got, want := CacheDir(), filepath.Join(xdg, "clear"); got != want {
			t.Fatalf("CacheDir() = %q, want %q", got, want)
		}
		t.Setenv("XDG_CACHE_HOME", "")
		t.Setenv("HOME", "")
		if got, want := CacheDir(), filepath.Join(os.TempDir(), "clear-cache"); got != want {
			t.Fatalf("CacheDir() = %q without a user cache dir, want %q", got, want)
		}
	}
	override := t.TempDir()
	t.Setenv("CLEAR_CACHE_DIR", override)
	if got := CacheDir(); got != override {
		t.Fatalf("CacheDir() = %q with CLEAR_CACHE_DIR set, want %q", got, override)
	}
}

// TestCampaignRecomputesTruncatedCache is the regression test for the
// self-healing cache: a valid entry truncated mid-file, or stripped of its
// integrity trailer, must not fail the campaign. The campaign recomputes
// (bit-identically), the bad file is quarantined as *.corrupt, and a fresh
// valid entry replaces it.
func TestCampaignRecomputesTruncatedCache(t *testing.T) {
	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", SamplesPerFF: 1, Seed: 11}
	for _, tc := range []struct {
		name string
		cut  func(data []byte) []byte
	}{
		{"mid-file", func(data []byte) []byte { return data[:len(data)/2] }},
		{"trailer-stripped", func(data []byte) []byte { return data[:len(data)-8] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			t.Setenv("CLEAR_CACHE_DIR", dir)
			r1, err := NewInjector().Campaign(cfg, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			files, _ := filepath.Glob(filepath.Join(dir, "*.gob"))
			if len(files) != 1 {
				t.Fatalf("cache files: %v", files)
			}
			entry := files[0]
			data, err := os.ReadFile(entry)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(entry, tc.cut(data), 0o644); err != nil {
				t.Fatal(err)
			}

			in := NewInjector()
			r2, err := in.Campaign(cfg, p, nil)
			if err != nil {
				t.Fatalf("campaign failed on damaged cache entry: %v", err)
			}
			if r2.Totals != r1.Totals {
				t.Fatalf("recomputed campaign differs: %+v vs %+v", r2.Totals, r1.Totals)
			}
			if s := in.Snapshot(); s.Quarantined != 1 || s.CacheMisses != 1 {
				t.Fatalf("injector counters = %+v, want one quarantine and one miss", s)
			}
			corrupt, _ := filepath.Glob(filepath.Join(dir, "*.corrupt"))
			if len(corrupt) != 1 {
				t.Fatalf("quarantine files = %v, want exactly one", corrupt)
			}
			// The rewritten entry round-trips cleanly.
			again := NewInjector()
			if _, err := again.Campaign(cfg, p, nil); err != nil {
				t.Fatalf("rewritten entry unreadable: %v", err)
			}
			if s := again.Snapshot(); s.CacheHits != 1 || s.Quarantined != 0 {
				t.Fatalf("reload counters = %+v, want one clean cache hit", s)
			}
			if more, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(more) != 1 {
				t.Fatalf("clean reload quarantined again: %v", more)
			}
		})
	}
}

// TestCampaignUnusableCacheDir pins why no IO error can reach a
// campaign's caller: with CLEAR_CACHE_DIR below a regular file, every cache
// read, MkdirAll and CreateTemp fails with ENOTDIR (also when running as
// root), and Campaign still returns exactly what Run computes, with a nil
// error and one cache miss.
func TestCampaignUnusableCacheDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("CLEAR_CACHE_DIR", filepath.Join(file, "cache"))

	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", SamplesPerFF: 1, Seed: 13}
	want, err := NewInjector().Run(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector()
	got, err := in.Campaign(cfg, p, nil)
	if err != nil {
		t.Fatalf("campaign failed on an unusable cache dir: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("campaign result differs from Run's")
	}
	if s := in.Snapshot(); s.CacheMisses != 1 || s.CacheHits != 0 || s.Quarantined != 0 {
		t.Fatalf("injector counters = %+v, want exactly one cache miss", s)
	}
}

// TestCampaignReadsCacheDirOnce switches $CLEAR_CACHE_DIR while a
// campaign runs, from the checker factory its nominal run and every worker
// core call: the campaign must write its entry under the directory it
// looked the entry up in, and must not create the directory it was
// switched to.
func TestCampaignReadsCacheDirOnce(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("CLEAR_CACHE_DIR", dir)
	switched := filepath.Join(t.TempDir(), "switched")
	switching := func(p *prog.Program) sim.Checker {
		os.Setenv("CLEAR_CACHE_DIR", switched)
		return noopChecker{}
	}

	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", SamplesPerFF: 1, Seed: 14}
	if _, err := NewInjector().Campaign(cfg, p, switching); err != nil {
		t.Fatal(err)
	}
	if got := os.Getenv("CLEAR_CACHE_DIR"); got != switched {
		t.Fatalf("checker factory did not switch CLEAR_CACHE_DIR: %q", got)
	}
	if _, err := os.Stat(switched); !os.IsNotExist(err) {
		t.Fatalf("campaign created %s, the cache directory it was switched to mid-run (stat: %v)", switched, err)
	}
	if _, err := os.Stat(filepath.Join(dir, cacheKey(cfg, p))); err != nil {
		t.Fatalf("campaign entry missing from the directory it was looked up in: %v", err)
	}
}

// TestCampaignDetectsBitrotViaCRC flips one payload byte of a valid entry:
// gob alone would often decode such damage into silently wrong statistics;
// the CRC trailer must reject and quarantine it.
func TestCampaignDetectsBitrotViaCRC(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("CLEAR_CACHE_DIR", dir)

	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", SamplesPerFF: 1, Seed: 12}
	r1, err := NewInjector().Campaign(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.gob"))
	if len(files) != 1 {
		t.Fatalf("cache files: %v", files)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x40 // rot one payload bit
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeCache(data); err == nil {
		t.Fatal("decodeCache accepted a bit-rotted payload under the CRC trailer")
	}
	r2, err := NewInjector().Campaign(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Totals != r1.Totals {
		t.Fatalf("recomputed campaign differs after bitrot: %+v vs %+v", r2.Totals, r1.Totals)
	}
	if corrupt, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(corrupt) != 1 {
		t.Fatalf("quarantine files = %v, want exactly one", corrupt)
	}
}

// FuzzCacheDecode attacks the cache decoder with arbitrary bytes: it must
// never panic, and any successful decode must return a result object.
func FuzzCacheDecode(f *testing.F) {
	r := &Result{
		Config:    Config{Core: InO, Bench: "fuzz", Tag: "base", SamplesPerFF: 1, Seed: 5},
		NomCycles: 128,
		NomRet:    64,
		PerFF:     []FFStats{{N: 1, OMM: 1}, {N: 1}, {N: 1, Hang: 1}},
		Totals:    Counts{N: 3, OMM: 1, Hang: 1, Vanished: 1},
	}
	valid, err := encodeCache(r)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-8]) // trailer stripped
	f.Add([]byte{})
	f.Add([]byte("CLRC"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("cap adversarial allocation")
		}
		r, _, err := decodeCache(data)
		if err == nil && r == nil {
			t.Fatal("decodeCache returned (nil, nil)")
		}
	})
}
