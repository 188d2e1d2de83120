// Package ff models processor state at flip-flop granularity.
//
// Every piece of sequential state in a simulated core (pipeline registers,
// status registers, microarchitectural tables built from flip-flops) is
// allocated as a named Field inside a Space. A Field is a contiguous run of
// bits in a flat bit array, so a soft error is exactly "flip bit i of the
// space" — the same abstraction the CLEAR paper uses for its RTL-level
// injection campaigns.
//
// A core may declare a field inert (AllocInert): its next-state, output and
// commit logic never reads the field, so no other flip-flop, register,
// memory word, output, counter, status or commit event is ever computed
// from it. A strike that flips only inert bits therefore cannot change
// what the core does, and the fault-injection engine decides it Vanished
// without simulating it.
package ff

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Space is a registry of named flip-flop fields plus their backing bits.
// A Space is built once per core design (the "layout" of sequential state);
// per-simulation bit values live in a State obtained from NewState.
type Space struct {
	fields []fieldInfo
	byName map[string]int
	nbits  int
	inert  []uint64 // bit mask of the inert fields' flip-flops
	// frozen flips exactly once, at the first NewState/Freeze; it is
	// atomic because shared spaces hand out states from many goroutines.
	frozen atomic.Bool
	// unitOf holds each bit's UnitIndex and nunits the number of units,
	// built once, when the space is frozen.
	unitsOnce sync.Once
	unitOf    []int32
	nunits    int
}

type fieldInfo struct {
	name  string
	unit  string // functional unit / structure the field belongs to
	off   int
	width int
}

// NewSpace returns an empty flip-flop space.
func NewSpace() *Space {
	return &Space{byName: make(map[string]int)}
}

// Field identifies a named run of bits inside a Space.
type Field struct {
	off   int
	width int
}

// Alloc registers a field of the given width (1..64 bits) under name,
// belonging to the named functional unit, and returns its handle.
// Alloc panics on duplicate names, invalid widths, or if the space is
// frozen: core construction is programmer-controlled, so these are bugs.
func (s *Space) Alloc(unit, name string, width int) Field {
	if s.frozen.Load() {
		panic("ff: Alloc after Freeze")
	}
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("ff: field %q has invalid width %d", name, width))
	}
	if _, dup := s.byName[name]; dup {
		panic(fmt.Sprintf("ff: duplicate field %q", name))
	}
	f := Field{off: s.nbits, width: width}
	s.byName[name] = len(s.fields)
	s.fields = append(s.fields, fieldInfo{name: name, unit: unit, off: s.nbits, width: width})
	s.nbits += width
	for len(s.inert)*64 < s.nbits {
		s.inert = append(s.inert, 0)
	}
	return f
}

// AllocInert is Alloc for a field the core never reads: its value feeds no
// other field, register, memory word, output, counter, status or commit
// event. The declaration must stay closed under every change to the core
// (see the cores' inert-closure tests), because the fault-injection engine
// decides strikes on inert bits Vanished without simulating them.
func (s *Space) AllocInert(unit, name string, width int) Field {
	f := s.Alloc(unit, name, width)
	for bit := f.off; bit < f.off+width; bit++ {
		s.inert[bit>>6] |= 1 << (uint(bit) & 63)
	}
	return f
}

// Inert reports whether bit belongs to a field allocated with AllocInert.
func (s *Space) Inert(bit int) bool {
	return s.inert[bit>>6]>>(uint(bit)&63)&1 != 0
}

// EqualExceptInert reports whether two states of the space hold identical
// bits outside the inert fields.
func (s *Space) EqualExceptInert(a, b *State) bool {
	for i, w := range a.words {
		if (w^b.words[i])&^s.inert[i] != 0 {
			return false
		}
	}
	return true
}

// Freeze marks the space complete, so further Alloc calls panic, and
// builds its per-bit unit index (UnitIndex).
func (s *Space) Freeze() { s.indexUnits() }

// indexUnits freezes the space and, the first time, builds the per-bit
// unit index UnitIndex reads.
func (s *Space) indexUnits() {
	s.frozen.Store(true)
	s.unitsOnce.Do(func() {
		s.unitOf = make([]int32, s.nbits)
		seen := make(map[string]int32)
		for _, f := range s.fields {
			u, ok := seen[f.unit]
			if !ok {
				u = int32(len(seen))
				seen[f.unit] = u
			}
			for b := f.off; b < f.off+f.width; b++ {
				s.unitOf[b] = u
			}
		}
		s.nunits = len(seen)
	})
}

// UnitIndex returns the index of the functional unit of the field
// containing bit, a bit of the space: units are numbered from 0 to
// NumUnits()-1 in the order their first field was allocated. The per-bit
// index is built once, when the space is frozen; UnitIndex freezes it.
func (s *Space) UnitIndex(bit int) int {
	s.indexUnits()
	return int(s.unitOf[bit])
}

// NumUnits reports the number of distinct functional units; like
// UnitIndex, it freezes the space.
func (s *Space) NumUnits() int {
	s.indexUnits()
	return s.nunits
}

// NumBits reports the total number of flip-flops (bits) in the space.
func (s *Space) NumBits() int { return s.nbits }

// NumFields reports the number of named fields.
func (s *Space) NumFields() int { return len(s.fields) }

// FieldNames returns all field names in allocation order.
func (s *Space) FieldNames() []string {
	names := make([]string, len(s.fields))
	for i, f := range s.fields {
		names[i] = f.name
	}
	return names
}

// Lookup returns the field registered under name.
func (s *Space) Lookup(name string) (Field, bool) {
	i, ok := s.byName[name]
	if !ok {
		return Field{}, false
	}
	return Field{off: s.fields[i].off, width: s.fields[i].width}, true
}

// NameOf returns the name and functional unit of the field containing bit.
func (s *Space) NameOf(bit int) (name, unit string) {
	i := sort.Search(len(s.fields), func(i int) bool {
		return s.fields[i].off+s.fields[i].width > bit
	})
	if i >= len(s.fields) || bit < s.fields[i].off {
		return "", ""
	}
	return s.fields[i].name, s.fields[i].unit
}

// UnitOf returns the functional unit of the field containing bit.
func (s *Space) UnitOf(bit int) string {
	_, u := s.NameOf(bit)
	return u
}

// Units returns the distinct functional-unit names, sorted.
func (s *Space) Units() []string {
	seen := make(map[string]bool)
	var units []string
	for _, f := range s.fields {
		if !seen[f.unit] {
			seen[f.unit] = true
			units = append(units, f.unit)
		}
	}
	sort.Strings(units)
	return units
}

// BitsOf returns the bit indices covered by the named field.
func (s *Space) BitsOf(name string) []int {
	f, ok := s.Lookup(name)
	if !ok {
		return nil
	}
	bits := make([]int, f.width)
	for i := range bits {
		bits[i] = f.off + i
	}
	return bits
}

// Width returns a field's width in bits.
func (f Field) Width() int { return f.width }

// Offset returns a field's first bit index.
func (f Field) Offset() int { return f.off }

// State holds the bit values for one simulation instance of a Space.
type State struct {
	words []uint64
}

// NewState returns an all-zero state sized for the space. The space is
// frozen as a side effect: states must never be outlived by new fields.
func (s *Space) NewState() *State {
	s.frozen.Store(true)
	return &State{words: make([]uint64, (s.nbits+63)/64)}
}

// Reset zeroes all bits.
func (st *State) Reset() {
	for i := range st.words {
		st.words[i] = 0
	}
}

// CopyFrom copies the contents of src (same space) into st.
func (st *State) CopyFrom(src *State) {
	copy(st.words, src.words)
}

// Clone returns a deep copy of the state.
func (st *State) Clone() *State {
	w := make([]uint64, len(st.words))
	copy(w, st.words)
	return &State{words: w}
}

// Equal reports whether two states hold identical bits.
func (st *State) Equal(other *State) bool {
	if len(st.words) != len(other.words) {
		return false
	}
	for i, w := range st.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// FlipBit inverts a single flip-flop: the soft-error primitive.
func (st *State) FlipBit(bit int) {
	st.words[bit>>6] ^= 1 << (uint(bit) & 63)
}

// Bit reads one bit.
func (st *State) Bit(bit int) uint64 {
	return (st.words[bit>>6] >> (uint(bit) & 63)) & 1
}

// Get reads a field's value.
func (f Field) Get(st *State) uint64 {
	lo := f.off >> 6
	sh := uint(f.off) & 63
	var v uint64
	if sh+uint(f.width) <= 64 {
		v = st.words[lo] >> sh
	} else {
		v = st.words[lo]>>sh | st.words[lo+1]<<(64-sh)
	}
	if f.width == 64 {
		return v
	}
	return v & (1<<uint(f.width) - 1)
}

// Set writes a field's value (truncated to the field width).
func (f Field) Set(st *State, v uint64) {
	var mask uint64 = 1<<uint(f.width) - 1
	if f.width == 64 {
		mask = ^uint64(0)
	}
	v &= mask
	lo := f.off >> 6
	sh := uint(f.off) & 63
	st.words[lo] = st.words[lo]&^(mask<<sh) | v<<sh
	if sh+uint(f.width) > 64 {
		hi := lo + 1
		rem := uint(f.width) - (64 - sh)
		hiMask := uint64(1)<<rem - 1
		st.words[hi] = st.words[hi]&^hiMask | v>>(64-sh)
	}
}

// GetSigned reads a field and sign-extends it to 64 bits.
func (f Field) GetSigned(st *State) int64 {
	v := f.Get(st)
	if f.width < 64 && v&(1<<uint(f.width-1)) != 0 {
		v |= ^uint64(0) << uint(f.width)
	}
	return int64(v)
}
