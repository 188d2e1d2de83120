package inject

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"clear/internal/prog"
	"clear/internal/sim"
)

// Campaign results are expensive (tens of seconds for the OoO core), so they
// are cached on disk keyed by a hash of the configuration, the results
// version and the exact program binary. Delete the cache directory (or set
// CLEAR_CACHE_DIR) to force re-runs.
//
// Entries are self-healing: each file ends in a CRC32-C of every byte before
// it, verified on every read, and a corrupt or truncated entry is
// quarantined (renamed *.corrupt, preserving the evidence) and recomputed
// instead of failing the campaign. See DESIGN.md §8.

// ResultsVersion numbers the campaign results this code computes and the
// layout of the cache entries that store them. Bump it whenever a change
// alters any campaign's result (a core's Step, a flip-flop space or its
// inert set, a fault model's Expand, Classify, HangFactor, a checker) or the
// entry layout, and re-pin TestResultsFingerprint's sums. The version is
// part of every entry's key hash, file name and header, so a warm cache
// never serves another version's numbers, and PruneCache deletes them.
const ResultsVersion = 1

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

// entryExt is the file-name extension of this version's cache entries.
var entryExt = ".v" + strconv.Itoa(ResultsVersion)

func cacheKey(cfg Config, p *prog.Program) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d|%d|%s|%s|%d|%d|", ResultsVersion, cfg.Core, cfg.Bench, cfg.Tag, cfg.SamplesPerFF, cfg.Seed)
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
	// of both the hash and the name; only the path separator needs
	// flattening.
	tag := strings.ReplaceAll(nonEmpty(cfg.Tag), "/", "_")
	return fmt.Sprintf("%s-%s-%s-%016x%s", cfg.Core, cfg.Bench, tag, h.Sum64(), entryExt)
}

func nonEmpty(s string) string {
	if s == "" {
		return "base"
	}
	return s
}

// A cache entry is one Result in this layout, integers little-endian:
//
//	magic "CLRE", ResultsVersion (4 bytes)
//	Config: Core (varint), len(Bench) and len(Tag) (uvarints), the Bench
//	        and Tag bytes, SamplesPerFF (varint), Seed (8 bytes)
//	NomCycles, NomRet, Totals.{N,Vanished,OMM,UT,Hang,ED}, DetLatSum,
//	        DetN (varints)
//	len(PerFF) (uvarint), then N, OMM, UT, Hang, ED of each flip-flop
//	        (uvarints)
//	CRC32-C of every byte before it (4 bytes)
//
// Varints are zig-zag signed; every (u)varint is in its shortest form, so
// each Result has exactly one encoding and decodeCache accepts nothing
// else. The two names sit side by side so a decode converts them to one
// string.
var entryMagic = [4]byte{'C', 'L', 'R', 'E'}

const (
	entryHeader  = len(entryMagic) + 4
	entryTrailer = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeCache serializes a campaign result as one cache entry.
func encodeCache(r *Result) []byte {
	c := r.Config
	// Most tallies take one byte, and the other fields well under 128.
	b := make([]byte, 0, len(c.Bench)+len(c.Tag)+5*len(r.PerFF)+128)
	b = append(b, entryMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, ResultsVersion)
	b = binary.AppendVarint(b, int64(c.Core))
	b = binary.AppendUvarint(b, uint64(len(c.Bench)))
	b = binary.AppendUvarint(b, uint64(len(c.Tag)))
	b = append(b, c.Bench...)
	b = append(b, c.Tag...)
	b = binary.AppendVarint(b, int64(c.SamplesPerFF))
	b = binary.LittleEndian.AppendUint64(b, c.Seed)
	t := r.Totals
	for _, v := range [...]int64{int64(r.NomCycles), r.NomRet,
		int64(t.N), int64(t.Vanished), int64(t.OMM), int64(t.UT), int64(t.Hang), int64(t.ED),
		r.DetLatSum, r.DetN} {
		b = binary.AppendVarint(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(r.PerFF)))
	for _, f := range r.PerFF {
		b = binary.AppendUvarint(b, uint64(f.N))
		b = binary.AppendUvarint(b, uint64(f.OMM))
		b = binary.AppendUvarint(b, uint64(f.UT))
		b = binary.AppendUvarint(b, uint64(f.Hang))
		b = binary.AppendUvarint(b, uint64(f.ED))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

var errEntry = errors.New("inject: cache entry malformed")

// entryReader reads the fields of an entry's body in order. A read past the
// end or of a malformed value sets bad and yields 0, so a decode need check
// bad only before it acts on a value, and at the end.
type entryReader struct {
	b   []byte
	i   int
	bad bool
}

// uvarint reads an unsigned varint in its shortest form.
func (d *entryReader) uvarint() uint64 {
	var x uint64
	for s := uint(0); d.i < len(d.b) && s < 64; s += 7 {
		c := d.b[d.i]
		d.i++
		if c < 0x80 {
			if (c == 0 && s > 0) || (s == 63 && c > 1) {
				break // padded or overflowing
			}
			return x | uint64(c)<<s
		}
		x |= uint64(c&0x7f) << s
	}
	d.bad = true
	d.i = len(d.b)
	return 0
}

// varint reads a zig-zag signed varint.
func (d *entryReader) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// int reads a varint that must fit an int.
func (d *entryReader) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.bad = true
	}
	return int(v)
}

// count reads one flip-flop tally, at most math.MaxUint16.
func (d *entryReader) count() uint16 {
	v := d.uvarint()
	if v > math.MaxUint16 {
		d.bad = true
	}
	return uint16(v)
}

// bytes reads the next n bytes, n bounded by the bytes left.
func (d *entryReader) bytes(n uint64) []byte {
	if n > uint64(len(d.b)-d.i) {
		d.bad = true
		d.i = len(d.b)
		return nil
	}
	s := d.b[d.i : d.i+int(n)]
	d.i += int(n)
	return s
}

// decodeCache parses one cache entry. The decoder is a trust boundary: it
// checks the magic, the version and the CRC before it parses a field,
// bounds every length by the bytes left before it allocates, and rejects
// non-canonical varints, tallies above math.MaxUint16 and trailing bytes,
// so it accepts exactly the bytes encodeCache produces.
func decodeCache(data []byte) (*Result, error) {
	n := len(data)
	if n < entryHeader+entryTrailer || [4]byte(data[:4]) != entryMagic {
		return nil, errors.New("inject: not a cache entry")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != ResultsVersion {
		return nil, fmt.Errorf("inject: cache entry of results version %d, want %d", v, ResultsVersion)
	}
	want := binary.LittleEndian.Uint32(data[n-entryTrailer:])
	if got := crc32.Checksum(data[:n-entryTrailer], castagnoli); got != want {
		return nil, fmt.Errorf("inject: cache CRC mismatch (%08x != %08x)", got, want)
	}
	d := entryReader{b: data[entryHeader : n-entryTrailer]}
	r := new(Result)
	c := &r.Config
	c.Core = CoreKind(d.int())
	lb, lt := d.uvarint(), d.uvarint()
	if lb > uint64(len(d.b)) || lt > uint64(len(d.b)) {
		return nil, errEntry
	}
	if names := d.bytes(lb + lt); !d.bad {
		s := string(names)
		c.Bench, c.Tag = s[:lb], s[lb:]
	}
	c.SamplesPerFF = d.int()
	if seed := d.bytes(8); seed != nil {
		c.Seed = binary.LittleEndian.Uint64(seed)
	}
	r.NomCycles, r.NomRet = d.int(), d.varint()
	t := &r.Totals
	t.N, t.Vanished, t.OMM, t.UT, t.Hang, t.ED = d.int(), d.int(), d.int(), d.int(), d.int(), d.int()
	r.DetLatSum, r.DetN = d.varint(), d.varint()
	// Each flip-flop takes at least five bytes: bound the count by the
	// bytes left before allocating for it.
	nff := d.uvarint()
	if d.bad || nff > uint64(len(d.b)-d.i)/5 {
		return nil, errEntry
	}
	ffs := make([]FFStats, nff)
	for k := range ffs {
		// Fast path: five one-byte tallies, every one below 0x80.
		if x := d.b[d.i:]; len(x) >= 5 && x[0]|x[1]|x[2]|x[3]|x[4] < 0x80 {
			ffs[k] = FFStats{uint16(x[0]), uint16(x[1]), uint16(x[2]), uint16(x[3]), uint16(x[4])}
			d.i += 5
			continue
		}
		ffs[k] = FFStats{d.count(), d.count(), d.count(), d.count(), d.count()}
		if d.bad {
			return nil, errEntry
		}
	}
	if d.i != len(d.b) {
		return nil, errEntry
	}
	r.PerFF = ffs
	return r, nil
}

// PruneCache deletes the cache entries in dir that belong to other results
// versions: every legacy *.gob entry and every *.v<N> entry with N other
// than ResultsVersion. Quarantined *.corrupt evidence, in-flight temp files
// and unrelated files stay. A missing dir holds nothing to prune.
func PruneCache(dir string) (removed int, err error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("inject: prune cache: %w", err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() || !isStaleEntry(e.Name()) {
			continue
		}
		// An entry already gone was pruned by a concurrent caller.
		switch err := os.Remove(filepath.Join(dir, e.Name())); {
		case err == nil:
			removed++
		case !errors.Is(err, os.ErrNotExist):
			return removed, fmt.Errorf("inject: prune cache: %w", err)
		}
	}
	return removed, nil
}

// isStaleEntry reports whether name is a cache entry's name,
// "<core>-<bench>-<tag>-<16 hex digits>" with a ".gob" or ".v<N>"
// extension, of a version other than ResultsVersion.
func isStaleEntry(name string) bool {
	ext := filepath.Ext(name)
	stem := strings.TrimSuffix(name, ext)
	if len(stem) < 17 || stem[len(stem)-17] != '-' {
		return false
	}
	for _, c := range stem[len(stem)-16:] {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	if ext == ".gob" {
		return true
	}
	v, ok := strings.CutPrefix(ext, ".v")
	if !ok || v == "" || strings.Trim(v, "0123456789") != "" {
		return false
	}
	return ext != entryExt
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
// mismatch — another model's tag included — or an implausible shape: a key
// collision or hand-edited file) is discarded as stale. Cache traffic and
// the campaign trace record land on this injector. The cache directory is
// read once, so the lookup and the write of one campaign use the same
// directory even if $CLEAR_CACHE_DIR changes while the campaign runs.
func (in *Injector) Campaign(cfg Config, p *prog.Program, cf func(*prog.Program) sim.Checker) (*Result, error) {
	start := time.Now()
	dir := CacheDir()
	path := filepath.Join(dir, cacheKey(cfg, p))
	if data, err := os.ReadFile(path); err == nil {
		r, derr := decodeCache(data)
		if derr == nil && r.Config == cfg && r.NomCycles > 0 && len(r.PerFF) == SpaceBits(cfg.Core) {
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
	if err := os.MkdirAll(dir, 0o755); err == nil {
		tmp, err := os.CreateTemp(dir, "campaign-*")
		if err == nil {
			name := tmp.Name()
			_, werr := tmp.Write(encodeCache(r))
			cerr := tmp.Close()
			// Caching is best-effort: on any failure (write, close, or
			// rename) the temp file is removed and the freshly computed
			// result is returned; the campaign simply re-runs next time.
			if werr != nil || cerr != nil || os.Rename(name, path) != nil {
				os.Remove(name)
			}
		}
	}
	return r, nil
}
