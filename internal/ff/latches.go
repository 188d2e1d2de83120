package ff

import (
	"fmt"
	"reflect"
	"unsafe"
)

// Latches maps every bit of a flip-flop space to the machine word that
// holds it in a core's latch struct L, so a strike flips the struck bit in
// place: no packed State is built, flipped and unpacked around it.
//
// The map is derived from two declarations a core already has: a struct of
// Field handles and the latch struct L, matched by field name, with arrays
// matched element by element. Each word of L is an unsigned integer at
// least as wide as its field, or a bool for a 1-bit field, and holds the
// value Field.Get would read from the packed image, so bit i of a field is
// bit i of its word. A Latches is immutable once built and safe to share
// across goroutines.
type Latches[L any] struct {
	bits []latchBit // indexed by space bit
}

// latchBit locates one bit of the space inside L.
type latchBit struct {
	off   uintptr // byte offset of the word in L
	size  uint8   // word size in bytes: 1, 2, 4 or 8
	shift uint8   // bit position inside the word
}

// NewLatches builds the map from s's bits to the words of L. handles is a
// struct, or a pointer to one, whose fields are Fields or arrays of Fields
// allocated in s's layout. NewLatches panics, naming the field, unless
// every handle has a word of the same name and shape in L that is wide
// enough for it (a bool only for a 1-bit field), every word of L has a
// handle, and the handles cover every bit of s exactly once: the
// declarations are programmer-controlled, so a mismatch is a bug.
func NewLatches[L any](s *Space, handles any) *Latches[L] {
	lt := reflect.TypeFor[L]()
	hv := reflect.Indirect(reflect.ValueOf(handles))
	if lt.Kind() != reflect.Struct || hv.Kind() != reflect.Struct {
		panic(fmt.Sprintf("ff: latches: %s and %s must both be structs", lt, hv.Type()))
	}
	words := make(map[string]reflect.StructField, lt.NumField())
	for i := range lt.NumField() {
		words[lt.Field(i).Name] = lt.Field(i)
	}
	m := &Latches[L]{bits: make([]latchBit, s.NumBits())}
	covered := make([]bool, s.NumBits())
	fieldType := reflect.TypeFor[Field]()
	for i := range hv.NumField() {
		hf, h := hv.Type().Field(i), hv.Field(i)
		w, ok := words[hf.Name]
		if !ok {
			panic(fmt.Sprintf("ff: latches: handle %s has no word of the same name in %s", hf.Name, lt))
		}
		delete(words, hf.Name)
		switch {
		case hf.Type == fieldType:
			m.place(s, covered, hf.Name, fieldOf(h), w.Offset, w.Type)
		case hf.Type.Kind() == reflect.Array && hf.Type.Elem() == fieldType:
			if w.Type.Kind() != reflect.Array || w.Type.Len() != h.Len() {
				panic(fmt.Sprintf("ff: latches: handle %s is %s but its word is %s", hf.Name, hf.Type, w.Type))
			}
			for j := range h.Len() {
				m.place(s, covered, fmt.Sprintf("%s[%d]", hf.Name, j), fieldOf(h.Index(j)),
					w.Offset+uintptr(j)*w.Type.Elem().Size(), w.Type.Elem())
			}
		default:
			panic(fmt.Sprintf("ff: latches: handle %s is %s, not a Field or an array of Fields", hf.Name, hf.Type))
		}
	}
	for i := range lt.NumField() {
		if name := lt.Field(i).Name; words[name].Type != nil {
			panic(fmt.Sprintf("ff: latches: word %s of %s has no handle", name, lt))
		}
	}
	for bit, ok := range covered {
		if !ok {
			name, _ := s.NameOf(bit)
			panic(fmt.Sprintf("ff: latches: bit %d (field %s) has no handle", bit, name))
		}
	}
	return m
}

// fieldOf reads a Field handle through reflection, which may read (but not
// write) the unexported fields of the handles struct.
func fieldOf(h reflect.Value) Field {
	return Field{off: int(h.FieldByName("off").Int()), width: int(h.FieldByName("width").Int())}
}

// place maps the bits of handle f, named name, to the word of type word at
// byte offset off in L.
func (m *Latches[L]) place(s *Space, covered []bool, name string, f Field, off uintptr, word reflect.Type) {
	if f.off < 0 || f.off+f.width > len(m.bits) {
		panic(fmt.Sprintf("ff: latches: handle %s (bits %d..%d) lies outside the %d-bit space",
			name, f.off, f.off+f.width-1, len(m.bits)))
	}
	field, _ := s.NameOf(f.off)
	what := fmt.Sprintf("ff: latches: handle %s (field %s, %d bits)", name, field, f.width)
	switch word.Kind() {
	case reflect.Bool:
		if f.width != 1 {
			panic(what + " lands in a bool")
		}
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if bits := 8 * int(word.Size()); f.width > bits {
			panic(fmt.Sprintf("%s lands in a %d-bit word", what, bits))
		}
	default:
		panic(fmt.Sprintf("%s lands in a %s, not an unsigned integer or bool", what, word))
	}
	for i := range f.width {
		bit := f.off + i
		if covered[bit] {
			panic(fmt.Sprintf("%s covers bit %d, which another handle covers too", what, bit))
		}
		covered[bit] = true
		m.bits[bit] = latchBit{off: off, size: uint8(word.Size()), shift: uint8(i)}
	}
}

// Flip inverts bit of the space in the latch struct u: the soft-error
// primitive on a core's latch state. It XORs one bit of one word in place.
//
// This is the only unsafe code in the module, and it is sound: each offset
// and size comes from L's own reflect layout, so the write stays inside *u
// and has the word's own type; the shift is below the field's width, so
// the word stays within it; and a bool is only ever a 1-bit field's word,
// whose byte therefore stays 0 or 1.
func (m *Latches[L]) Flip(u *L, bit int) {
	b := m.bits[bit]
	p := unsafe.Add(unsafe.Pointer(u), b.off)
	switch b.size {
	case 1:
		*(*uint8)(p) ^= 1 << b.shift
	case 2:
		*(*uint16)(p) ^= 1 << b.shift
	case 4:
		*(*uint32)(p) ^= 1 << b.shift
	default:
		*(*uint64)(p) ^= 1 << b.shift
	}
}
