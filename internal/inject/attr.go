package inject

import (
	"sync"

	"clear/internal/ff"
	"clear/internal/sim"
)

// Attribution tables: a per-space precomputed map from flip-flop bit to the
// (unit, slot) coordinates InFlight observations report, so the injection
// hot path resolves a strike's root instruction with two array reads and
// one scan of the in-flight list — no string parsing, no allocation.

// attrTable maps every bit of one flip-flop space to its functional unit
// and the entry index encoded in its field name ("rob.pc17" → slot 17;
// -1 when the name carries no trailing index, e.g. "f.pc").
type attrTable struct {
	unit []string
	slot []int
}

var (
	attrMu     sync.Mutex
	attrTables = map[*ff.Space]*attrTable{}
)

// attrOf returns (building and memoizing on first use) the attribution
// table of a space. Spaces are shared per core design, so at most two
// tables exist per process.
func attrOf(s *ff.Space) *attrTable {
	attrMu.Lock()
	defer attrMu.Unlock()
	if t, ok := attrTables[s]; ok {
		return t
	}
	n := s.NumBits()
	t := &attrTable{unit: make([]string, n), slot: make([]int, n)}
	for bit := 0; bit < n; bit++ {
		name, unit := s.NameOf(bit)
		t.unit[bit] = unit
		t.slot[bit] = trailingIndex(name)
	}
	attrTables[s] = t
	return t
}

// trailingIndex parses the decimal entry index a multi-entry structure's
// field names end with ("sched0.s1val5" → 5, "mem.stq.address12" → 12);
// names without trailing digits return -1.
func trailingIndex(name string) int {
	i := len(name)
	for i > 0 && name[i-1] >= '0' && name[i-1] <= '9' {
		i--
	}
	if i == len(name) {
		return -1
	}
	v := 0
	for _, c := range name[i:] {
		v = v*10 + int(c-'0')
	}
	return v
}

// rootPC attributes a struck bit to the in-flight instruction whose state
// it corrupted: the occupant of the same (unit, slot) when one exists, else
// the oldest occupant of the same unit (field names whose numeric suffix is
// not an entry index — multiplier stage registers like "exec.mu0.a12" —
// and per-entry fields struck while their own slot is empty land here),
// else NoRootPC (the structure held no instruction).
func (t *attrTable) rootPC(flights []sim.InFlightInst, bit int) uint32 {
	unit, slot := t.unit[bit], t.slot[bit]
	root := NoRootPC
	for _, f := range flights {
		if f.Unit != unit {
			continue
		}
		if f.Slot == slot {
			return f.PC
		}
		if root == NoRootPC {
			root = f.PC
		}
	}
	return root
}

// recorder records injections for a RecordSink. It owns the in-flight
// buffer observe fills, so a campaign worker, which keeps one recorder for
// the whole campaign, observes its strikes without allocating once the
// buffer has grown. A nil *recorder records nothing.
type recorder struct {
	sink    RecordSink
	flights []sim.InFlightInst
}

// newRecorder returns a recorder emitting to sink, or nil without a sink.
func newRecorder(sink RecordSink) *recorder {
	if sink == nil {
		return nil
	}
	return &recorder{sink: sink}
}

// observe captures the attribution half of a Record right before the flip
// lands: the struck structure and the PC occupying it at the injection
// cycle. Outcome and detection latency are filled in by emit once the run
// classifies.
func (r *recorder) observe(c sim.Core, bit, cycle int) Record {
	t := attrOf(c.SpaceOf())
	r.flights = c.InFlight(r.flights[:0])
	return Record{
		Bit:    bit,
		Unit:   t.unit[bit],
		Cycle:  cycle,
		DetLat: -1,
		RootPC: t.rootPC(r.flights, bit),
	}
}

// emit completes an observed record with the run's classification and
// forwards it to the sink. DetLat mirrors the campaign accounting: cycles
// from injection to detection, only meaningful for ED outcomes whose
// detection fired at or after the injection cycle.
func (r *recorder) emit(rec Record, out Outcome, det int) {
	rec.Outcome = out
	if out == ED && det >= rec.Cycle {
		rec.DetLat = det - rec.Cycle
	}
	r.sink.Record(rec)
}
