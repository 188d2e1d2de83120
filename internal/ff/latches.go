package ff

import (
	"bytes"
	"fmt"
	"math/bits"
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
// bit i of its word. An array of 1-bit fields may instead land in one
// unsigned word with at least as many bits as the array has elements — a
// mask word — whose bit j holds element j. A Latches is immutable once
// built and safe to share across goroutines.
type Latches[L comparable] struct {
	bits []latchBit // indexed by space bit
	// at maps each bit position of L, numbered as diffs numbers them, to
	// the space bit it holds, or to -1 for padding and for the bits of a
	// word above its field's width or its mask's elements.
	at []int32
	// live holds, for each word of L's alignment, the mask of its bits
	// that belong to a field of L: every bit but padding.
	live []uint64
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
// every handle has a word of the same name in L that is wide enough for it
// — of the same shape (a bool only for a 1-bit field), or for an array of
// 1-bit fields a mask word — every word of L has a handle, and the handles
// cover every bit of s exactly once: the declarations are
// programmer-controlled, so a mismatch is a bug.
func NewLatches[L comparable](s *Space, handles any) *Latches[L] {
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
			m.place(s, covered, hf.Name, fieldOf(h), w.Offset, w.Type, 0)
		case hf.Type.Kind() == reflect.Array && hf.Type.Elem() == fieldType:
			switch {
			case w.Type.Kind() == reflect.Array && w.Type.Len() == h.Len():
				for j := range h.Len() {
					m.place(s, covered, fmt.Sprintf("%s[%d]", hf.Name, j), fieldOf(h.Index(j)),
						w.Offset+uintptr(j)*w.Type.Elem().Size(), w.Type.Elem(), 0)
				}
			case unsigned(w.Type):
				if bits := 8 * int(w.Type.Size()); h.Len() > bits {
					panic(fmt.Sprintf("ff: latches: handle %s has %d elements but its mask word has %d bits",
						hf.Name, h.Len(), bits))
				}
				for j := range h.Len() {
					name, f := fmt.Sprintf("%s[%d]", hf.Name, j), fieldOf(h.Index(j))
					if f.width != 1 {
						field, _ := s.NameOf(f.off)
						panic(fmt.Sprintf("ff: latches: handle %s (field %s, %d bits) shares a mask word, which holds only 1-bit fields",
							name, field, f.width))
					}
					m.place(s, covered, name, f, w.Offset, w.Type, j)
				}
			default:
				panic(fmt.Sprintf("ff: latches: handle %s is %s but its word is %s", hf.Name, hf.Type, w.Type))
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
	m.at = make([]int32, 8*lt.Size())
	for pos := range m.at {
		m.at[pos] = -1
	}
	var zero, one L
	for bit, b := range m.bits {
		m.Flip(&one, bit)
		m.diffs(&one, &zero, b.off, b.off+uintptr(b.size), func(pos int) bool {
			m.at[pos] = int32(bit)
			return true
		})
		m.Flip(&one, bit)
	}
	// one, all zero again, becomes a scratch image whose field bytes are
	// all ones: it is read only as words, never as an L.
	m.live = make([]uint64, lt.Size()/uintptr(lt.Align()))
	fields := unsafe.Slice((*byte)(unsafe.Pointer(&one)), lt.Size())
	for i := range lt.NumField() {
		f := lt.Field(i)
		for off := f.Offset; off < f.Offset+f.Type.Size(); off++ {
			fields[off] = 0xFF
		}
	}
	wordBits := 8 * lt.Align()
	m.diffs(&one, &zero, 0, lt.Size(), func(pos int) bool {
		m.live[pos/wordBits] |= 1 << (pos % wordBits)
		return true
	})
	return m
}

// fieldOf reads a Field handle through reflection, which may read (but not
// write) the unexported fields of the handles struct.
func fieldOf(h reflect.Value) Field {
	return Field{off: int(h.FieldByName("off").Int()), width: int(h.FieldByName("width").Int())}
}

// unsigned reports whether t is an unsigned integer word.
func unsigned(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return true
	}
	return false
}

// place maps the bits of handle f, named name, to the word of type word at
// byte offset off in L, bit i of f to bit shift+i of the word.
func (m *Latches[L]) place(s *Space, covered []bool, name string, f Field, off uintptr, word reflect.Type, shift int) {
	if f.off < 0 || f.off+f.width > len(m.bits) {
		panic(fmt.Sprintf("ff: latches: handle %s (bits %d..%d) lies outside the %d-bit space",
			name, f.off, f.off+f.width-1, len(m.bits)))
	}
	field, _ := s.NameOf(f.off)
	what := fmt.Sprintf("ff: latches: handle %s (field %s, %d bits)", name, field, f.width)
	switch {
	case word.Kind() == reflect.Bool:
		if f.width != 1 {
			panic(what + " lands in a bool")
		}
	case unsigned(word):
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
		m.bits[bit] = latchBit{off: off, size: uint8(word.Size()), shift: uint8(shift + i)}
	}
}

// Flip inverts bit of the space in the latch struct u: the soft-error
// primitive on a core's latch state. It XORs one bit of one word in place.
//
// Flip, and EqualExcept and Differ below, are the module's only unsafe
// code (with NewLatches' scratch images of L). Flip is
// sound: each offset and size comes from L's own reflect layout, so the
// write stays inside *u and has the word's own type; the shift is below
// the field's width, or in a mask word below its number of elements, so
// the word stays within them; and a bool is only ever a 1-bit field's
// word, whose byte therefore stays 0 or 1.
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

// EqualExcept reports whether a and b hold the same bits everywhere except
// in space bits for which skip reports true. It XORs the two structs word
// by word — skipping blocks of equalBlock bytes that compare equal whole —
// and maps each differing bit back to its space bit; a differing bit that
// holds no space bit (padding, or a word's bits above its field's width or
// its mask's elements) is a difference. It allocates nothing and changes neither struct.
//
// Like Flip it reads L through unsafe, and soundly: L holds no pointers
// (NewLatches admits only unsigned integer and bool words), so its bytes
// and words are plain integers; the byte views span exactly
// Sizeof(L); and every word load has L's own alignment, at an offset that
// is a multiple of it and lies inside L (a struct's size is a multiple of
// its alignment).
func (m *Latches[L]) EqualExcept(a, b *L, skip func(bit int) bool) bool {
	n := unsafe.Sizeof(*a)
	ba := unsafe.Slice((*byte)(unsafe.Pointer(a)), n)
	bb := unsafe.Slice((*byte)(unsafe.Pointer(b)), n)
	ok := func(pos int) bool {
		bit := m.at[pos]
		return bit >= 0 && skip(int(bit))
	}
	for lo := uintptr(0); lo < n; lo += equalBlock {
		hi := min(lo+equalBlock, n)
		if !bytes.Equal(ba[lo:hi], bb[lo:hi]) && !m.diffs(a, b, lo, hi, ok) {
			return false
		}
	}
	return true
}

// Differ reports whether *a != *b; only its cost depends on hint, the
// caller's memory of where such structs last differed. It first tests the
// word of L's alignment at index *hint, on the bits that belong to a
// field of L, and reports a difference there at once. Otherwise — the
// hint is out of range, or names padding or equal words — it compares the
// structs whole with !=, and on a difference stores in *hint the index of
// the first word that differs in a field's bits. A lane struck in one
// latch differs from its fault-free twin in the same word cycle after
// cycle, so the hinted word usually answers alone. It reads L through
// unsafe as soundly as EqualExcept, and allocates nothing.
func (m *Latches[L]) Differ(a, b *L, hint *int) bool {
	if w := *hint; uint(w) < uint(len(m.live)) && m.wordDiffers(a, b, w) {
		return true
	}
	if *a == *b {
		return false
	}
	n := unsafe.Sizeof(*a)
	ba := unsafe.Slice((*byte)(unsafe.Pointer(a)), n)
	bb := unsafe.Slice((*byte)(unsafe.Pointer(b)), n)
	wordBits := 8 * int(unsafe.Alignof(*a))
	first := func(pos int) bool {
		w := pos / wordBits
		if m.live[w]>>(pos%wordBits)&1 == 0 {
			return true // padding
		}
		*hint = w
		return false
	}
	for lo := uintptr(0); lo < n; lo += equalBlock {
		hi := min(lo+equalBlock, n)
		if !bytes.Equal(ba[lo:hi], bb[lo:hi]) && !m.diffs(a, b, lo, hi, first) {
			break
		}
	}
	return true
}

// wordDiffers reports whether a and b differ in a field's bits of their
// word w of L's alignment, which lies inside L.
func (m *Latches[L]) wordDiffers(a, b *L, w int) bool {
	size := unsafe.Alignof(*a)
	pa := unsafe.Add(unsafe.Pointer(a), uintptr(w)*size)
	pb := unsafe.Add(unsafe.Pointer(b), uintptr(w)*size)
	var x uint64
	switch size {
	case 8:
		x = *(*uint64)(pa) ^ *(*uint64)(pb)
	case 4:
		x = uint64(*(*uint32)(pa) ^ *(*uint32)(pb))
	case 2:
		x = uint64(*(*uint16)(pa) ^ *(*uint16)(pb))
	default:
		x = uint64(*(*uint8)(pa) ^ *(*uint8)(pb))
	}
	return x&m.live[w] != 0
}

// equalBlock is the span, in bytes, that EqualExcept and Differ compare
// whole before they look for differing bits word by word: most blocks of
// a lane that nearly matches its checkpoint are identical. It is a
// multiple of every alignment, so a block starts on a word.
const equalBlock = 256

// diffs calls f with the position of each bit in which a and b differ, in
// the words of L's alignment that overlap bytes [lo, hi), and stops at
// the first call that returns false, reporting whether none did. The bit
// k of the word at byte offset off has position 8*off+k, so positions are
// unique and cover L's 8*Sizeof(L) bits whatever the machine's byte order.
func (m *Latches[L]) diffs(a, b *L, lo, hi uintptr, f func(pos int) bool) bool {
	pa, pb := unsafe.Pointer(a), unsafe.Pointer(b)
	switch unsafe.Alignof(*a) {
	case 8:
		return eachDiff[uint64](pa, pb, lo, hi, f)
	case 4:
		return eachDiff[uint32](pa, pb, lo, hi, f)
	case 2:
		return eachDiff[uint16](pa, pb, lo, hi, f)
	}
	return eachDiff[uint8](pa, pb, lo, hi, f)
}

// eachDiff is diffs for words of type W.
func eachDiff[W uint8 | uint16 | uint32 | uint64](a, b unsafe.Pointer, lo, hi uintptr, f func(pos int) bool) bool {
	w := unsafe.Sizeof(W(0))
	for off := lo &^ (w - 1); off < hi; off += w {
		for x := uint64(*(*W)(unsafe.Add(a, off)) ^ *(*W)(unsafe.Add(b, off))); x != 0; x &= x - 1 {
			if !f(8*int(off) + bits.TrailingZeros64(x)) {
				return false
			}
		}
	}
	return true
}
