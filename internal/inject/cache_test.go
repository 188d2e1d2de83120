package inject

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"clear/internal/archres"
	"clear/internal/bench"
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
// trailing CRC, must not fail the campaign. The campaign recomputes
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
		{"trailer-stripped", func(data []byte) []byte { return data[:len(data)-entryTrailer] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			t.Setenv("CLEAR_CACHE_DIR", dir)
			r1, err := NewInjector().Campaign(cfg, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			files, _ := filepath.Glob(filepath.Join(dir, "*"+entryExt))
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

// TestCampaignDetectsBitrotViaCRC flips one payload bit of a valid entry:
// a tally's bytes alone would often decode such damage into silently wrong
// statistics; the CRC must reject and quarantine it.
func TestCampaignDetectsBitrotViaCRC(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("CLEAR_CACHE_DIR", dir)

	p := tinyProgram(t)
	cfg := Config{Core: InO, Bench: "tiny", SamplesPerFF: 1, Seed: 12}
	r1, err := NewInjector().Campaign(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"+entryExt))
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
	if _, err := decodeCache(data); err == nil {
		t.Fatal("decodeCache accepted a bit-rotted payload under its CRC")
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

// sealed returns a copy of entry with its CRC recomputed over the bytes
// before it, so a test reaches the checks the decoder makes behind the CRC.
func sealed(entry []byte) []byte {
	n := len(entry) - entryTrailer
	return binary.LittleEndian.AppendUint32(slices.Clip(entry[:n]), crc32.Checksum(entry[:n], castagnoli))
}

// codecResult is a result of the given fault model whose fields take the
// encoding's edge values: negative and 64-bit integers, and tallies that
// need one, two and three varint bytes, the largest at math.MaxUint16.
func codecResult(model string) *Result {
	return &Result{
		Config:    Config{Core: OoO, Bench: "codec", Tag: ModelTag(model, "base"), SamplesPerFF: 300, Seed: 0xC1EA5 << 40},
		NomCycles: 1 << 20,
		NomRet:    -1,
		PerFF: []FFStats{
			{N: 300, OMM: 200, UT: 65535, Hang: 0, ED: 127},
			{N: 128, OMM: 1},
			{},
		},
		Totals:    Counts{N: 428, Vanished: 1, OMM: 201, UT: 65535, ED: 127},
		DetLatSum: math.MinInt64,
		DetN:      math.MaxInt64,
	}
}

// TestCacheCodec round-trips a result of every registered fault model and
// rejects every single-byte corruption of its entry — the magic, the
// version, each field and the CRC — and every truncation.
func TestCacheCodec(t *testing.T) {
	for _, model := range ModelNames() {
		r := codecResult(model)
		data := encodeCache(r)
		back, err := decodeCache(data)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("%s: round-trip mismatch:\ngot  %+v\nwant %+v", model, back, r)
		}
		bad := make([]byte, len(data))
		for i := range data {
			for x := 1; x < 256; x++ {
				copy(bad, data)
				bad[i] ^= byte(x)
				if _, err := decodeCache(bad); err == nil {
					t.Fatalf("%s: decodeCache accepted byte %d xor %#02x", model, i, x)
				}
			}
		}
		for n := range data {
			if _, err := decodeCache(data[:n]); err == nil {
				t.Fatalf("%s: decodeCache accepted the entry cut to %d of %d bytes", model, n, len(data))
			}
		}
	}
}

// TestCacheDecodeRejectsSealedMalformed covers the checks behind the CRC:
// entries whose CRC is right but whose bytes encodeCache never writes.
func TestCacheDecodeRejectsSealedMalformed(t *testing.T) {
	r := &Result{
		Config:    Config{Core: InO, Bench: "x", Tag: "base", SamplesPerFF: 1, Seed: 5},
		NomCycles: 128,
		PerFF:     []FFStats{{N: 1, OMM: 1}, {N: 1}, {N: 1, Hang: 1}},
		Totals:    Counts{N: 3, OMM: 1, Hang: 1, Vanished: 1},
	}
	data := encodeCache(r)
	body := data[:len(data)-entryTrailer]
	last := len(body) - 1        // the last flip-flop's ED tally, 0
	count := len(body) - 5*3 - 1 // the flip-flop count, 3
	detN := count - 1            // DetN, 0: any int64 is valid there
	edit := func(at int, with ...byte) []byte {
		e := slices.Concat(body[:at], with, body[at+1:], make([]byte, entryTrailer))
		return sealed(e)
	}
	for _, tc := range []struct {
		name  string
		entry []byte
	}{
		{"other magic", sealed(slices.Concat([]byte("CLRX"), data[4:]))},
		{"other version", sealed(slices.Concat(data[:4], binary.LittleEndian.AppendUint32(nil, ResultsVersion+1), data[8:]))},
		{"trailing byte", sealed(slices.Concat(body, []byte{0}, make([]byte, entryTrailer)))},
		{"padded varint", edit(last, 0x80, 0x00)},
		{"tally above 65535", edit(last, 0x80, 0x80, 0x04)},
		{"one flip-flop more than the bytes hold", edit(count, 4)},
		{"a flip-flop count of 2^40", edit(count, binary.AppendUvarint(nil, 1<<40)...)},
		{"a varint past 64 bits", edit(detN, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02)},
		{"no body", sealed(slices.Concat(data[:entryHeader], make([]byte, entryTrailer)))},
	} {
		if _, err := decodeCache(tc.entry); err == nil {
			t.Errorf("%s: decodeCache accepted it", tc.name)
		}
	}
	if _, err := decodeCache(sealed(data)); err != nil {
		t.Fatalf("resealing an intact entry broke it: %v", err)
	}
}

// TestPruneCache holds one file of each kind a cache directory can hold:
// only entries of other results versions go.
func TestPruneCache(t *testing.T) {
	dir := t.TempDir()
	const stem = "InO-gzip-base-0123456789abcdef"
	keep := []string{
		stem + entryExt,                     // this version's entry
		stem + ".v0.corrupt",                // quarantined evidence
		stem + ".gob.corrupt",               // quarantined legacy evidence
		"campaign-123456",                   // an in-flight temp file
		"notes.txt",                         // unrelated
		"InO-gzip-base-0123456789abcdef.vx", // not a version
		"not-an-entry.v0",                   // no key hash
	}
	gone := []string{
		stem + ".gob",                           // a legacy gob entry
		"OoO-gzip-mbu_base-fedcba9876543210.v0", // another version
		stem + fmt.Sprintf(".v%d", ResultsVersion+1),
	}
	for _, name := range append(slices.Clone(keep), gone...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, stem+".v0dir.v0"), 0o755); err != nil {
		t.Fatal(err)
	}
	removed, err := PruneCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(gone) {
		t.Errorf("PruneCache removed %d, want %d", removed, len(gone))
	}
	for _, name := range keep {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, name := range gone {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived (stat: %v)", name, err)
		}
	}
	if n, err := PruneCache(filepath.Join(dir, "missing")); n != 0 || err != nil {
		t.Errorf("PruneCache of a missing dir = %d, %v", n, err)
	}
}

// fingerprintSums pins, at ResultsVersion 1, the sha256 of the encoded entry
// of each fingerprint campaign (TestResultsFingerprint).
var fingerprintSums = map[string]string{
	"InO/base":        "177a146d2c3a4a210629252df45322dd8966e52877f73921884b215176aa8918",
	"InO/mbu/base":    "3427a10afdcb51d266322c62706c428faed8ba24bdf428ef23dcc65b8156f484",
	"InO/uncore/base": "ef4b302fce206a960cf10416180f67266b9a42eea182ebc7e0e51ef530573846",
	"InO/set/base":    "202124c1306b57698e40ba1c15b18c6cc6f62dfc7f5c4e7e00233ec4c2d7a1aa",
	"OoO/base":        "e8f50de80594f57fd4ff48af15ddf7d570175e9d7c9c36f986aa93e182ecd2fa",
	"OoO/mbu/base":    "5c03f0dca41008b8e827dbb609f039b378025656e50e3903953d90501d915bb1",
	"OoO/uncore/base": "b89fe3f75982b842b71cab7eb60272dce060366590e2b046503c0b6b1622f813",
	"OoO/set/base":    "e70edb927df6733bf9586d2babe0d793f254a6040ca077c665c86af701c146a8",
	"InO/dfc":         "89f148d4ebc7bc9709daa05437fbf5636abfc05a2b34bb0367b0ecba912f929a",
}

// TestResultsFingerprint runs gzip at one sample per flip-flop on both
// cores under every fault model, and once checked by DFC, and compares each
// encoded entry's sha256 with fingerprintSums. A mismatch means the
// campaigns compute other results (or the entry layout changed): bump
// ResultsVersion, so no warm cache serves the old numbers, and re-pin.
func TestResultsFingerprint(t *testing.T) {
	p := bench.ByName("gzip").MustProgram()
	type campaign struct {
		cfg Config
		cf  func(*prog.Program) sim.Checker
	}
	var cs []campaign
	for _, k := range []CoreKind{InO, OoO} {
		for _, model := range []string{"ssb", "mbu", "uncore", "set"} {
			cs = append(cs, campaign{cfg: Config{Core: k, Bench: "gzip", Tag: ModelTag(model, "base"), SamplesPerFF: 1, Seed: 0xC1EA5}})
		}
	}
	cs = append(cs, campaign{Config{Core: InO, Bench: "gzip", Tag: "dfc", SamplesPerFF: 1, Seed: 0xC1EA5}, archres.NewDFCChecker})
	var pins strings.Builder
	for _, c := range cs {
		name := fmt.Sprintf("%v/%s", c.cfg.Core, c.cfg.Tag)
		r, err := NewInjector().Run(c.cfg, p, c.cf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(encodeCache(r))
		got := hex.EncodeToString(sum[:])
		if want := fingerprintSums[name]; got != want {
			t.Errorf("%s: entry sha256 %s, pinned %s: results changed: bump ResultsVersion and re-pin", name, got, want)
		}
		fmt.Fprintf(&pins, "\t%q: %q,\n", name, got)
	}
	if t.Failed() {
		t.Logf("the sums at this revision:\n%s", pins.String())
	}
}

// FuzzCacheDecode attacks the cache decoder with arbitrary bytes, as read
// and with their CRC resealed so the parse behind it is reached: it must
// never panic, and a decode that succeeds must re-encode to its input, so
// each Result has one entry and the decoder accepts nothing else.
func FuzzCacheDecode(f *testing.F) {
	for _, model := range ModelNames() {
		valid := encodeCache(codecResult(model))
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		f.Add(valid[:len(valid)-entryTrailer])
	}
	f.Add([]byte{})
	f.Add(entryMagic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("cap adversarial allocation")
		}
		inputs := [][]byte{data}
		if len(data) >= entryHeader+entryTrailer {
			inputs = append(inputs, sealed(data))
		}
		for _, in := range inputs {
			r, err := decodeCache(in)
			if err != nil {
				continue
			}
			if r == nil {
				t.Fatal("decodeCache returned (nil, nil)")
			}
			if again := encodeCache(r); !bytes.Equal(again, in) {
				t.Fatalf("decoded entry re-encodes differently:\nin  %x\nout %x", in, again)
			}
		}
	})
}

// cacheBenchResults are gzip campaigns at the engines' default sampling:
// InO at 24 samples per flip-flop, OoO at 3.
var cacheBenchResults = sync.OnceValues(func() ([]*Result, error) {
	p := bench.ByName("gzip").MustProgram()
	var rs []*Result
	for _, cfg := range []Config{
		{Core: InO, Bench: "gzip", Tag: "base", SamplesPerFF: 24, Seed: 0xC1EA5},
		{Core: OoO, Bench: "gzip", Tag: "base", SamplesPerFF: 3, Seed: 0xC1EA5},
	} {
		r, err := NewInjector().Run(cfg, p, nil)
		if err != nil {
			return nil, err
		}
		rs = append(rs, r)
	}
	return rs, nil
})

// BenchmarkCacheDecode times the decode of what a cache hit reads.
func BenchmarkCacheDecode(b *testing.B) {
	rs, err := cacheBenchResults()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rs {
		data := encodeCache(r)
		b.Run(fmt.Sprintf("%v-%d", r.Config.Core, r.Config.SamplesPerFF), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := decodeCache(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCacheEncode times the encode of what a cache miss writes.
func BenchmarkCacheEncode(b *testing.B) {
	rs, err := cacheBenchResults()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rs {
		b.Run(fmt.Sprintf("%v-%d", r.Config.Core, r.Config.SamplesPerFF), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encodedSink = encodeCache(r)
			}
		})
	}
}

var encodedSink []byte
