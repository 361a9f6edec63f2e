package wire

import (
	"encoding/base64"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// maxEncodeDepth bounds the pointer and container nesting Append walks.
// encoding/json encodes deeper acyclic values and refuses cyclic ones;
// Append declines both and leaves them to it.
const maxEncodeDepth = 1000

// Append appends the JSON encoding of v to dst and reports whether it did.
// The bytes are exactly json.Marshal(v)'s: fields in declaration order
// with omitempty honoured, map keys sorted, strings HTML-safe with invalid
// UTF-8 as \ufffd, floats in encoding/json's format, and []byte as
// standard base64. It declines, returning dst with its length unchanged,
// on anything it does not reproduce exactly (a type with a Marshaler, a
// ",string" or ",omitzero" option, an interface, an array, a NaN or an
// infinity, nesting past maxEncodeDepth); the caller then runs
// encoding/json. FuzzWireEncode holds the two to that.
func Append(dst []byte, v any) ([]byte, bool) {
	if v == nil {
		return append(dst, "null"...), true
	}
	rv := reflect.ValueOf(v)
	r := rootFor(rv.Type())
	if !r.ok {
		return dst, false
	}
	b, ok := appendValue(dst, r.plan, rv, 0)
	if !ok {
		return dst, false
	}
	return b, true
}

// scratch recycles the encoding buffers of Marshal and Write.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// maxScratch bounds the capacity of a buffer kept for reuse.
const maxScratch = 4 << 20

// encode runs Append on a reused buffer and, if it encoded v, hands use
// the bytes, which are valid until use returns.
func encode(v any, use func([]byte)) bool {
	bp := scratch.Get().(*[]byte)
	b, ok := Append((*bp)[:0], v)
	if ok {
		use(b)
	}
	if cap(b) <= maxScratch {
		*bp = b[:0]
		scratch.Put(bp)
	}
	return ok
}

// Marshal is json.Marshal with Append in front. Like json.Marshal it
// encodes into a reused buffer and returns a copy of exactly the encoded
// length, so a large body costs one allocation of its own size.
func Marshal(v any) ([]byte, error) {
	var out []byte
	if encode(v, func(b []byte) { out = slices.Clone(b) }) {
		return out, nil
	}
	return json.Marshal(v)
}

// Write writes to w what json.NewEncoder(w).Encode(v) writes, v's
// encoding and a newline, in one Write from a reused buffer.
func Write(w io.Writer, v any) error {
	var err error
	if encode(v, func(b []byte) { _, err = w.Write(append(b, '\n')) }) {
		return err
	}
	return json.NewEncoder(w).Encode(v)
}

// appendValue appends v's encoding by plan p. depth counts the pointers
// and containers around v.
func appendValue(b []byte, p *plan, v reflect.Value, depth int) ([]byte, bool) {
	switch p.kind {
	case kString:
		return appendString(b, v.String()), true
	case kInt:
		return strconv.AppendInt(b, v.Int(), 10), true
	case kUint:
		return strconv.AppendUint(b, v.Uint(), 10), true
	case kBool:
		return strconv.AppendBool(b, v.Bool()), true
	case kFloat:
		return appendFloat(b, v.Float(), p.bits)
	}
	if depth >= maxEncodeDepth {
		return b, false
	}
	switch p.kind {
	case kStruct:
		return appendObject(b, p, v, depth)
	case kPtr:
		if v.IsNil() {
			return append(b, "null"...), true
		}
		return appendValue(b, p.elem, v.Elem(), depth+1)
	case kInt64s:
		if v.IsNil() {
			return append(b, "null"...), true
		}
		return appendInts(b, exact[[]int64](v)), true
	case kRows:
		if v.IsNil() {
			return append(b, "null"...), true
		}
		b = append(b, '[')
		for i, row := range exact[[][]int64](v) {
			if i > 0 {
				b = append(b, ',')
			}
			if row == nil {
				b = append(b, "null"...)
			} else {
				b = appendInts(b, row)
			}
		}
		return append(b, ']'), true
	case kBytes:
		if v.IsNil() {
			return append(b, "null"...), true
		}
		b = append(b, '"')
		b = base64.StdEncoding.AppendEncode(b, v.Bytes())
		return append(b, '"'), true
	case kSlice:
		if v.IsNil() {
			return append(b, "null"...), true
		}
		b = append(b, '[')
		for i, n := 0, v.Len(); i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			var ok bool
			if b, ok = appendValue(b, p.elem, v.Index(i), depth+1); !ok {
				return b, false
			}
		}
		return append(b, ']'), true
	case kMap:
		return appendMap(b, p, v, depth)
	}
	return b, false
}

// appendObject appends a struct as a JSON object.
func appendObject(b []byte, p *plan, v reflect.Value, depth int) ([]byte, bool) {
	b = append(b, '{')
	first := true
	for i := range p.fields {
		f := &p.fields[i]
		fv := v.Field(f.index[0])
		for _, j := range f.index[1:] {
			fv = fv.Field(j)
		}
		if f.omitEmpty && empty(f.plan, fv) {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, '"')
		b = append(b, f.name...)
		b = append(b, '"', ':')
		var ok bool
		if b, ok = appendValue(b, f.plan, fv, depth+1); !ok {
			return b, false
		}
	}
	return append(b, '}'), true
}

// appendMap appends a string-keyed map as a JSON object, keys sorted.
func appendMap(b []byte, p *plan, v reflect.Value, depth int) ([]byte, bool) {
	if v.IsNil() {
		return append(b, "null"...), true
	}
	type entry struct {
		key string
		val reflect.Value
	}
	entries := make([]entry, 0, v.Len())
	for it := v.MapRange(); it.Next(); {
		entries = append(entries, entry{it.Key().String(), it.Value()})
	}
	slices.SortFunc(entries, func(a, b entry) int { return strings.Compare(a.key, b.key) })
	b = append(b, '{')
	for i, e := range entries {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, e.key)
		b = append(b, ':')
		var ok bool
		if b, ok = appendValue(b, p.elem, e.val, depth+1); !ok {
			return b, false
		}
	}
	return append(b, '}'), true
}

// empty is encoding/json's omitempty test.
func empty(p *plan, v reflect.Value) bool {
	switch p.kind {
	case kStruct:
		return false
	case kPtr:
		return v.IsNil()
	case kBool:
		return !v.Bool()
	case kInt:
		return v.Int() == 0
	case kUint:
		return v.Uint() == 0
	case kFloat:
		return v.Float() == 0
	}
	return v.Len() == 0 // strings, slices and maps
}

// exact returns the value of v, whose type is exactly T, without the copy
// Interface makes of an addressable value.
func exact[T any](v reflect.Value) T {
	if v.CanAddr() {
		return *v.Addr().Interface().(*T)
	}
	return v.Interface().(T)
}

// appendInts appends a non-nil []int64 as a JSON array.
func appendInts(b []byte, s []int64) []byte {
	b = append(b, '[')
	for i, x := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, x, 10)
	}
	return append(b, ']')
}

// appendFloat appends f as encoding/json formats a float of the given
// bits: like %g with ES6's exponent cutoffs. NaN and infinities decline.
func appendFloat(b []byte, f float64, bits int) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// htmlSafe marks the ASCII bytes encoding/json writes as they are: the
// printable ones other than the quote, the backslash and <, >, &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's escapes:
// HTML-sensitive characters and U+2028/U+2029 as \u escapes, and each
// byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
