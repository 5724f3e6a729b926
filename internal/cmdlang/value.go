// Package cmdlang implements the ACE service command language: the
// typed values, the ACECmdLine command object, the wire (string)
// encoding, the parser, and the per-daemon command semantics registry.
//
// The language follows the grammar given in the ACE architecture
// report (§2.2):
//
//	<CMND>     := <CMNDNAME><space>[<ARGLIST>];
//	<ARGUMENT> := <ARGNAME>'='<ARGVALUE>
//	<ARGVALUE> := <INTEGER>|<FLOAT>|<WORD>|<STRING>|<VECTOR>|<ARRAY>
//
// plus one value kind of its own, <BYTES>: '#', a decimal length n, ':'
// and then n raw bytes, for binary values that text would have to encode.
//
// Commands are built as CmdLine objects, rendered to a compact textual
// string, transmitted, and re-parsed on the receiving side, optionally
// validated against the receiver's command semantics (Registry).
package cmdlang

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// Kind identifies the type of a Value. The ACE language has five
// scalar kinds plus homogeneous vectors and arrays of vectors.
type Kind int

const (
	// KindInvalid is the zero Kind; no valid Value has it.
	KindInvalid Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindWord is a contiguous run of alphanumerics and underscores.
	KindWord
	// KindString is an arbitrary printable string (quoted on the wire).
	KindString
	// KindVector is a homogeneous sequence of scalar values.
	KindVector
	// KindArray is a sequence of vectors.
	KindArray
	// KindBytes is a length-prefixed run of arbitrary bytes.
	KindBytes
)

// String returns the lower-case name of the kind as used in command
// semantics declarations ("int", "float", "word", "string", "vector",
// "array", "bytes").
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindWord:
		return "word"
	case KindString:
		return "string"
	case KindVector:
		return "vector"
	case KindArray:
		return "array"
	case KindBytes:
		return "bytes"
	default:
		return "invalid"
	}
}

// KindFromString is the inverse of Kind.String. It returns KindInvalid
// for unknown names.
func KindFromString(s string) Kind {
	switch s {
	case "int":
		return KindInt
	case "float":
		return KindFloat
	case "word":
		return KindWord
	case "string":
		return KindString
	case "vector":
		return KindVector
	case "array":
		return KindArray
	case "bytes":
		return KindBytes
	default:
		return KindInvalid
	}
}

// Value is one ACE command-language value. The zero Value is invalid;
// construct values with Int, Float, Word, String, Bytes, Vector, or
// Array. Values are immutable once constructed.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string  // word, string or byte-string content
	vec  []Value // vector: scalar elements; array: vector elements
}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a float value. NaN and infinities are not expressible
// in the textual grammar; they are clamped to zero.
func Float(v float64) Value {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return Value{kind: KindFloat, f: v}
}

// Bool returns the conventional ACE encoding of a boolean: the words
// "true" and "false".
func Bool(v bool) Value {
	if v {
		return Word("true")
	}
	return Word("false")
}

// Word returns a word value. If s is not a valid word (empty, or
// contains characters outside [A-Za-z0-9_]), it is returned as a
// String value instead, so the round-trip stays lossless.
func Word(s string) Value {
	if !IsWord(s) {
		return String(s)
	}
	return Value{kind: KindWord, s: s}
}

// String returns a string value. Arbitrary contents are permitted;
// the encoder escapes quotes, backslashes, and control characters.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Bytes returns a byte-string value holding a copy of b. The value owns
// its bytes, so the caller may reuse b at once, even while a command
// built from the value is still being encoded.
func Bytes(b []byte) Value { return Value{kind: KindBytes, s: string(b)} }

// Vector returns a vector value from scalar elements. All elements
// must be scalars of the same kind; offending elements degrade the
// whole construction to an error sentinel caught by Validate. The
// empty vector is legal.
func Vector(elems ...Value) Value {
	cp := make([]Value, len(elems))
	copy(cp, elems)
	return Value{kind: KindVector, vec: cp}
}

// IntVector builds a vector of integers.
func IntVector(vs ...int64) Value {
	elems := make([]Value, len(vs))
	for i, v := range vs {
		elems[i] = Int(v)
	}
	return Value{kind: KindVector, vec: elems}
}

// FloatVector builds a vector of floats.
func FloatVector(vs ...float64) Value {
	elems := make([]Value, len(vs))
	for i, v := range vs {
		elems[i] = Float(v)
	}
	return Value{kind: KindVector, vec: elems}
}

// WordVector builds a vector of words.
func WordVector(vs ...string) Value {
	elems := make([]Value, len(vs))
	for i, v := range vs {
		elems[i] = Word(v)
	}
	return Value{kind: KindVector, vec: elems}
}

// StringVector builds a vector of strings.
func StringVector(vs ...string) Value {
	elems := make([]Value, len(vs))
	for i, v := range vs {
		elems[i] = String(v)
	}
	return Value{kind: KindVector, vec: elems}
}

// Array returns an array value from vector elements. Every element
// must itself be a vector. The empty array is indistinguishable from
// the empty vector in the textual grammar ("{}"), so it canonicalizes
// to the empty vector.
func Array(vectors ...Value) Value {
	if len(vectors) == 0 {
		return Vector()
	}
	cp := make([]Value, len(vectors))
	copy(cp, vectors)
	return Value{kind: KindArray, vec: cp}
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value was properly constructed.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsInt returns the integer content. Floats are truncated; words and
// strings are parsed if they look numeric. ok is false otherwise.
func (v Value) AsInt() (val int64, ok bool) {
	switch v.kind {
	case KindInt:
		return v.i, true
	case KindFloat:
		return int64(v.f), true
	case KindWord, KindString:
		n, err := strconv.ParseInt(v.s, 10, 64)
		return n, err == nil
	default:
		return 0, false
	}
}

// AsFloat returns the float content, converting ints and numeric
// words/strings. ok is false otherwise.
func (v Value) AsFloat() (val float64, ok bool) {
	switch v.kind {
	case KindFloat:
		return v.f, true
	case KindInt:
		return float64(v.i), true
	case KindWord, KindString:
		f, err := strconv.ParseFloat(v.s, 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// AsString returns the content of a word, string or byte-string value,
// or the rendered form of any other value.
func (v Value) AsString() string {
	switch v.kind {
	case KindWord, KindString, KindBytes:
		return v.s
	default:
		return v.Encode()
	}
}

// AsBytes returns the content of a byte-string value, and of a word or
// string as its bytes; ok is false for every other kind. The slice
// shares the value's memory and must not be modified.
func (v Value) AsBytes() (b []byte, ok bool) {
	switch v.kind {
	case KindBytes, KindWord, KindString:
		return unsafe.Slice(unsafe.StringData(v.s), len(v.s)), true
	default:
		return nil, false
	}
}

// AsBool interprets the conventional boolean words. ok is false when
// the value is not a recognizable boolean.
func (v Value) AsBool() (val, ok bool) {
	switch strings.ToLower(v.AsString()) {
	case "true", "yes", "on", "1":
		return true, true
	case "false", "no", "off", "0":
		return false, true
	}
	return false, false
}

// Elems returns the elements of a vector or array value (nil for
// scalars). The returned slice must not be modified.
func (v Value) Elems() []Value {
	if v.kind == KindVector || v.kind == KindArray {
		return v.vec
	}
	return nil
}

// Len returns the element count of a vector or array, 0 for scalars.
func (v Value) Len() int { return len(v.Elems()) }

// Equal reports deep equality of two values, including kind.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindInt:
		return v.i == o.i
	case KindFloat:
		return v.f == o.f
	case KindWord, KindString, KindBytes:
		return v.s == o.s
	case KindVector, KindArray:
		if len(v.vec) != len(o.vec) {
			return false
		}
		for i := range v.vec {
			if !v.vec[i].Equal(o.vec[i]) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// Validate checks the structural invariants of the value: vectors are
// homogeneous and contain only scalars; arrays contain only vectors.
func (v Value) Validate() error {
	switch v.kind {
	case KindInvalid:
		return fmt.Errorf("cmdlang: invalid value")
	case KindVector:
		var elemKind Kind
		for i, e := range v.vec {
			switch e.kind {
			case KindInt, KindFloat, KindWord, KindString, KindBytes:
			default:
				return fmt.Errorf("cmdlang: vector element %d has non-scalar kind %v", i, e.kind)
			}
			if elemKind == KindInvalid {
				elemKind = e.kind
			} else if e.kind != elemKind {
				return fmt.Errorf("cmdlang: vector is not homogeneous: element %d is %v, expected %v", i, e.kind, elemKind)
			}
		}
		return nil
	case KindArray:
		for i, e := range v.vec {
			if e.kind != KindVector {
				return fmt.Errorf("cmdlang: array element %d is %v, not vector", i, e.kind)
			}
			if err := e.Validate(); err != nil {
				return fmt.Errorf("cmdlang: array element %d: %w", i, err)
			}
		}
		return nil
	default:
		return nil
	}
}

// Encode renders the value in the ACE textual grammar.
func (v Value) Encode() string {
	return ownedString(v.appendTo(make([]byte, 0, v.sizeHint())))
}

// sizeHint estimates the length of the value's encoding: an upper
// bound unless a string needs escapes.
func (v *Value) sizeHint() int {
	switch v.kind {
	case KindInt:
		return 20
	case KindFloat:
		return 24
	case KindWord:
		return len(v.s)
	case KindString:
		return len(v.s) + 2
	case KindBytes:
		return len(v.s) + 22 // '#', at most 20 digits, ':'
	default:
		n := 2
		for i := range v.vec {
			n += v.vec[i].sizeHint() + 1
		}
		return n
	}
}

func appendInt(dst []byte, i int64) []byte { return strconv.AppendInt(dst, i, 10) }

func (v *Value) appendTo(dst []byte) []byte {
	switch v.kind {
	case KindInt:
		dst = appendInt(dst, v.i)
	case KindFloat:
		n := len(dst)
		dst = strconv.AppendFloat(dst, v.f, 'g', -1, 64)
		// A float must stay lexically distinct from an integer.
		if bytes.IndexAny(dst[n:], ".eE") < 0 {
			dst = append(dst, ".0"...)
		}
	case KindWord:
		dst = append(dst, v.s...)
	case KindString:
		dst = appendQuoted(dst, v.s)
	case KindBytes:
		dst = append(dst, '#')
		dst = appendInt(dst, int64(len(v.s)))
		dst = append(dst, ':')
		dst = append(dst, v.s...)
	case KindVector, KindArray:
		dst = append(dst, '{')
		for i := range v.vec {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = v.vec[i].appendTo(dst)
		}
		dst = append(dst, '}')
	}
	return dst
}

// appendQuoted appends s as a <STRING>: quoted, with quotes,
// backslashes, newlines, carriage returns and tabs escaped and every
// byte that is not valid UTF-8 replaced by U+FFFD. A string with none
// of those — nearly every one, and every bulk value — is copied whole.
func appendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '"')
	if isPlain(s) {
		dst = append(dst, s...)
		return append(dst, '"')
	}
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '"':
			dst = append(dst, '\\', '"')
		case c == '\\':
			dst = append(dst, '\\', '\\')
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c < utf8.RuneSelf:
			dst = append(dst, c)
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
			continue
		}
		i++
	}
	return append(dst, '"')
}

// isPlain reports whether s encodes as itself between quotes.
func isPlain(s string) bool {
	for _, c := range []byte{'"', '\\', '\n', '\r', '\t'} {
		if strings.IndexByte(s, c) >= 0 {
			return false
		}
	}
	return utf8.ValidString(s)
}

// IsWord reports whether s is a legal <WORD>: a non-empty run of
// ASCII letters, digits, and underscores that does not begin with a
// digit or sign (so words never collide lexically with numbers).
func IsWord(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
