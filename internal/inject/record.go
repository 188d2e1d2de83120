package inject

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"clear/internal/obs"
)

// Attribution-carrying injection records: the per-injection observation the
// campaign loop used to discard. Every executed scenario — a RunOneFrom
// call, a cold campaign lane, a gang lane observed right after its fork —
// emits one Record through the injector's pluggable Sink when one is
// attached; a nil Sink costs a single pointer check and keeps the engine's
// behavior — outcomes, Result contents, cache bytes — exactly as before.
// Records arrive in no particular order, and RecordBuffer sorts them by
// content. Records never enter Result or
// the on-disk cache: a record field there would change every entry and
// every results fingerprint (DESIGN.md §8), so attribution flows only
// through the sink.

// NoRootPC marks a record whose struck structure held no attributable
// instruction at the injection cycle (an empty buffer slot, a
// configuration register, an architecturally inert staging latch). It is
// out of range for every program PC, which index the program's word array.
const NoRootPC = ^uint32(0)

// Record is the compact attribution of one injection: which flip-flop was
// struck, the pipeline structure it belongs to, when it was struck, how the
// fault resolved, the detection latency (cycles from injection to
// detection; -1 unless the outcome is ED), and the PC of the static
// instruction occupying the struck structure at the injection cycle
// (NoRootPC when the structure was empty). For multi-flip scenarios Bit is
// the scenario's first flip (the lowest bit of an mbu cluster, which
// expands in ascending order).
type Record struct {
	Bit     int
	Unit    string
	Cycle   int
	Outcome Outcome
	DetLat  int
	RootPC  uint32
}

// RecordSink receives per-injection records. Campaign workers call Record
// concurrently, so implementations must be safe for concurrent use. A sink
// observes injections without influencing them: attaching one changes no
// outcome and no Result byte.
type RecordSink interface {
	Record(Record)
}

// RecordBuffer is a RecordSink that accumulates records in memory.
type RecordBuffer struct {
	mu   sync.Mutex
	recs []Record
}

// Record appends one record (safe for concurrent use).
func (b *RecordBuffer) Record(r Record) {
	b.mu.Lock()
	b.recs = append(b.recs, r)
	b.mu.Unlock()
}

// Len reports the number of buffered records.
func (b *RecordBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.recs)
}

// Records returns the buffered records sorted by content — Bit, Cycle,
// Outcome, DetLat, then RootPC — so the order is reproducible whichever
// order campaign workers and gangs delivered them in. Unit follows from Bit
// on one core, so records of one core that tie on all five are identical.
func (b *RecordBuffer) Records() []Record {
	b.mu.Lock()
	out := slices.Clone(b.recs)
	b.mu.Unlock()
	slices.SortFunc(out, func(x, y Record) int {
		return cmp.Or(cmp.Compare(x.Bit, y.Bit), cmp.Compare(x.Cycle, y.Cycle),
			cmp.Compare(x.Outcome, y.Outcome), cmp.Compare(x.DetLat, y.DetLat),
			cmp.Compare(x.RootPC, y.RootPC))
	})
	return out
}

// injectionRecord is the JSONL schema TraceSink emits (type "injection"),
// composing injection records with the sweep/campaign records of the same
// obs.Tracer stream (DESIGN.md §10).
type injectionRecord struct {
	Type    string `json:"type"` // "injection"
	Bit     int    `json:"bit"`
	Unit    string `json:"unit"`
	Cycle   int    `json:"cycle"`
	Outcome string `json:"outcome"`
	// det_lat is emitted unconditionally: an omitempty here once hid the
	// DetLat 0 of an ED detection firing at the injection cycle, leaving
	// consumers unable to tell "detected instantly" (0) from "not
	// applicable" (-1, every non-ED record).
	DetLat int   `json:"det_lat"`
	RootPC int64 `json:"root_pc"` // -1 when no instruction occupied the structure
}

// TraceSink forwards records to an obs.Tracer as one JSONL line each,
// composing per-injection attribution with the existing event-trace stream
// (the tracer serializes concurrent emits). The zero-value/nil-tracer sink
// discards records.
type TraceSink struct {
	T *obs.Tracer
}

// Record emits the record as a JSONL "injection" event.
func (s TraceSink) Record(r Record) {
	root := int64(-1)
	if r.RootPC != NoRootPC {
		root = int64(r.RootPC)
	}
	s.T.Emit(injectionRecord{
		Type:    "injection",
		Bit:     r.Bit,
		Unit:    r.Unit,
		Cycle:   r.Cycle,
		Outcome: r.Outcome.String(),
		DetLat:  r.DetLat,
		RootPC:  root,
	})
}

// MultiSink fans every record out to each sink in order.
type MultiSink []RecordSink

// Record forwards to every sink.
func (m MultiSink) Record(r Record) {
	for _, s := range m {
		s.Record(r)
	}
}

// AddSat accumulates o into f, saturating every counter at the uint16
// maximum instead of wrapping. Per-campaign tallies cannot overflow (the
// campaign validates SamplesPerFF against the counter range), but
// re-aggregating records across merged campaigns can: a wrapped counter
// silently inverts a flip-flop's measured vulnerability, while a saturated
// one stays a conservative upper bound. Widening the fields is not an
// option — FFStats is part of the frozen on-disk cache format.
func (f *FFStats) AddSat(o FFStats) {
	f.N = satAdd16(f.N, o.N)
	f.OMM = satAdd16(f.OMM, o.OMM)
	f.UT = satAdd16(f.UT, o.UT)
	f.Hang = satAdd16(f.Hang, o.Hang)
	f.ED = satAdd16(f.ED, o.ED)
}

func satAdd16(a, b uint16) uint16 {
	if s := uint32(a) + uint32(b); s <= math.MaxUint16 {
		return uint16(s)
	}
	return math.MaxUint16
}
