package inject

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCampaignRecomputesTruncatedCache is the regression test for the
// self-healing cache: a valid entry truncated mid-file must not fail the
// campaign. The campaign recomputes (bit-identically), the bad file is
// quarantined as *.corrupt, and a fresh valid entry replaces it.
func TestCampaignRecomputesTruncatedCache(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("CLEAR_CACHE_DIR", dir)

	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", SamplesPerFF: 1, Seed: 11}
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
	if err := os.WriteFile(entry, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	before := QuarantineStats()
	r2, err := NewInjector().Campaign(cfg, p, nil)
	if err != nil {
		t.Fatalf("campaign failed on truncated cache entry: %v", err)
	}
	if r2.Totals != r1.Totals {
		t.Fatalf("recomputed campaign differs: %+v vs %+v", r2.Totals, r1.Totals)
	}
	if got := QuarantineStats() - before; got != 1 {
		t.Fatalf("quarantine counter advanced by %d, want 1", got)
	}
	corrupt, _ := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if len(corrupt) != 1 {
		t.Fatalf("quarantine files = %v, want exactly one", corrupt)
	}
	// The rewritten entry round-trips cleanly.
	if _, err := NewInjector().Campaign(cfg, p, nil); err != nil {
		t.Fatalf("rewritten entry unreadable: %v", err)
	}
	if more, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(more) != 1 {
		t.Fatalf("clean reload quarantined again: %v", more)
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

// TestDecodeCacheLegacyTrailerless keeps the pre-trailer cache corpus
// (testdata/cache holds hundreds of such entries) readable: a plain gob
// encoding without the CRC trailer must still decode.
func TestDecodeCacheLegacyTrailerless(t *testing.T) {
	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", SamplesPerFF: 1, Seed: 13}
	r, err := NewInjector().Run(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := encodeCache(r)
	if err != nil {
		t.Fatal(err)
	}
	legacy := data[:len(data)-8] // strip magic + CRC: the legacy format
	got, gotModel, err := decodeCache(legacy)
	if err != nil {
		t.Fatalf("legacy trailerless entry rejected: %v", err)
	}
	if got.Totals != r.Totals || got.Config != cfg {
		t.Fatalf("legacy decode mismatch: %+v", got.Totals)
	}
	if gotModel != DefaultModel {
		t.Fatalf("legacy trailerless entry decoded as model %q, want %q", gotModel, DefaultModel)
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
	f.Add(valid[:len(valid)-8]) // legacy trailerless form
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
