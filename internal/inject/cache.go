package inject

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"time"

	"clear/internal/prog"
	"clear/internal/sim"
)

// Campaign results are expensive (tens of seconds for the OoO core), so they
// are cached on disk keyed by a hash of the configuration and the exact
// program binary. Delete the cache directory (or set CLEAR_CACHE_DIR) to
// force re-runs.
//
// Entries are self-healing: each file carries a CRC32-C integrity trailer
// verified on every read, and a corrupt or truncated entry is quarantined
// (renamed *.corrupt, preserving the evidence) and recomputed instead of
// failing the campaign. See DESIGN.md §8.

// CacheDir returns the campaign cache directory: $CLEAR_CACHE_DIR if set
// (read on every call, so a process may switch caches between campaigns),
// else "clear" under the user cache directory (os.UserCacheDir), else
// "clear-cache" under the temp dir.
func CacheDir() string {
	if d := os.Getenv("CLEAR_CACHE_DIR"); d != "" {
		return d
	}
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "clear")
	}
	return filepath.Join(os.TempDir(), "clear-cache")
}

func cacheKey(cfg Config, p *prog.Program) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d|%d|", cfg.Core, cfg.Bench, cfg.Tag, cfg.SamplesPerFF, cfg.Seed)
	for _, w := range p.Words {
		var b [4]byte
		b[0], b[1], b[2], b[3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
		h.Write(b[:])
	}
	for _, w := range p.Data {
		var b [4]byte
		b[0], b[1], b[2], b[3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
		h.Write(b[:])
	}
	// The fault model rides inside Tag ("mbu/base"), so it is already part
	// of both the hash and the filename; only the path separator needs
	// flattening. Unprefixed (ssb) tags keep their exact legacy filenames.
	tag := strings.ReplaceAll(nonEmpty(cfg.Tag), "/", "_")
	return fmt.Sprintf("%s-%s-%s-%016x.gob", cfg.Core, cfg.Bench, tag, h.Sum64())
}

func nonEmpty(s string) string {
	if s == "" {
		return "base"
	}
	return s
}

// cacheMagic marks the 8-byte integrity trailer appended to every ssb
// cache entry: the 4 magic bytes followed by the little-endian CRC32-C of
// the gob payload. An entry without a CLRC or CLRM trailer does not decode.
var cacheMagic = [4]byte{'C', 'L', 'R', 'C'}

// cacheModelMagic marks the model-carrying trailer of non-ssb entries:
// [gob payload][model bytes][1-byte model length]['C','L','R','M'][CRC32-C
// of everything preceding]. Recording the model in the trailer — not just
// the Tag inside the gob — means a file whose header disagrees with its
// payload (a hand-renamed or cross-model-copied entry) is rejected before
// its campaign numbers can leak into the wrong model's sweep. ssb entries
// keep the CLRC format byte-for-byte, and CLRC files always decode as
// model "ssb".
var cacheModelMagic = [4]byte{'C', 'L', 'R', 'M'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeCache serializes a campaign result and appends the integrity
// trailer: CLRC for ssb results (a frozen, byte-identical format), CLRM
// with the embedded model name for every other fault model.
func encodeCache(r *Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		return nil, err
	}
	model, _ := SplitModelTag(r.Config.Tag)
	var sum uint32
	if model != DefaultModel {
		if len(model) > 255 {
			return nil, fmt.Errorf("inject: fault-model name %q too long for cache trailer", model)
		}
		buf.WriteString(model)
		buf.WriteByte(byte(len(model)))
		buf.Write(cacheModelMagic[:])
		// CLRM checksums payload + model + length + magic.
		sum = crc32.Checksum(buf.Bytes(), castagnoli)
	} else {
		// The CLRC trailer checksums only the gob payload (magic
		// excluded) — frozen, so existing ssb entries stay byte-identical.
		sum = crc32.Checksum(buf.Bytes(), castagnoli)
		buf.Write(cacheMagic[:])
	}
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], sum)
	buf.Write(tr[:])
	return buf.Bytes(), nil
}

// decodeCache deserializes a cache entry body, returning the result and
// the fault model the entry was recorded under. The trailer's CRC is
// verified before gob sees a single byte, and an entry without a trailer
// is rejected like any corrupt one. CLRC entries are model "ssb" by
// definition.
func decodeCache(data []byte) (*Result, string, error) {
	var payload []byte
	model := DefaultModel
	n := len(data)
	switch {
	case n >= 8 && bytes.Equal(data[n-8:n-4], cacheMagic[:]):
		want := binary.LittleEndian.Uint32(data[n-4:])
		payload = data[:n-8]
		if got := crc32.Checksum(payload, castagnoli); got != want {
			return nil, "", fmt.Errorf("inject: cache CRC mismatch (%08x != %08x)", got, want)
		}
	case n >= 9 && bytes.Equal(data[n-8:n-4], cacheModelMagic[:]):
		want := binary.LittleEndian.Uint32(data[n-4:])
		if got := crc32.Checksum(data[:n-4], castagnoli); got != want {
			return nil, "", fmt.Errorf("inject: cache CRC mismatch (%08x != %08x)", got, want)
		}
		mlen := int(data[n-9])
		if n < 9+mlen {
			return nil, "", fmt.Errorf("inject: cache model trailer truncated")
		}
		model = string(data[n-9-mlen : n-9])
		payload = data[:n-9-mlen]
	default:
		return nil, "", fmt.Errorf("inject: cache entry has no integrity trailer")
	}
	var r Result
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&r); err != nil {
		return nil, "", fmt.Errorf("inject: cache decode: %w", err)
	}
	return &r, model, nil
}

// quarantine renames a corrupt cache entry to path+".corrupt" so the
// evidence survives for postmortems while the campaign recomputes. If the
// rename itself fails the entry is removed — recomputing must never be
// blocked by a bad file.
func (in *Injector) quarantine(path string) {
	if err := os.Rename(path, path+".corrupt"); err == nil {
		in.quarantined.Add(1)
	} else {
		os.Remove(path)
	}
}

// Campaign runs (or loads from cache) the injection campaign for cfg,
// checked by cf's checkers when cf is non-nil; a cache miss computes
// through Run. Cache failures never fail the campaign: a corrupt or
// truncated entry is quarantined and the campaign recomputed; a decodable
// entry that does not demonstrably belong to this campaign (stored Config
// mismatch, implausible shape — a key collision or hand-edited file) is
// discarded as stale. Cache traffic and the campaign trace record land on
// this injector. The cache directory is read once, so the lookup and the
// write of one campaign use the same directory even if $CLEAR_CACHE_DIR
// changes while the campaign runs.
func (in *Injector) Campaign(cfg Config, p *prog.Program, cf func(*prog.Program) sim.Checker) (*Result, error) {
	start := time.Now()
	wantModel, _ := SplitModelTag(cfg.Tag)
	dir := CacheDir()
	path := filepath.Join(dir, cacheKey(cfg, p))
	if data, err := os.ReadFile(path); err == nil {
		r, gotModel, derr := decodeCache(data)
		if derr == nil && r.Config == cfg && gotModel == wantModel && r.NomCycles > 0 &&
			len(r.PerFF) == SpaceBits(cfg.Core) {
			in.cacheHits.Add(1)
			in.traceCampaign(cfg, r, "cache", time.Since(start))
			return r, nil
		}
		if derr != nil {
			in.quarantine(path)
		} else {
			os.Remove(path) // stale, not corrupt: no evidence worth keeping
		}
	}
	in.cacheMisses.Add(1)
	r, err := in.Run(cfg, p, cf)
	if err != nil {
		return nil, err
	}
	in.traceCampaign(cfg, r, "run", time.Since(start))
	if data, encErr := encodeCache(r); encErr == nil {
		if err := os.MkdirAll(dir, 0o755); err == nil {
			tmp, err := os.CreateTemp(dir, "campaign-*")
			if err == nil {
				name := tmp.Name()
				_, werr := tmp.Write(data)
				cerr := tmp.Close()
				// Caching is best-effort: on any failure (write, close, or
				// rename) the temp file is removed and the freshly computed
				// result is returned; the campaign simply re-runs next time.
				if werr != nil || cerr != nil || os.Rename(name, path) != nil {
					os.Remove(name)
				}
			}
		}
	}
	return r, nil
}
