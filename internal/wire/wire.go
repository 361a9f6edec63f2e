// Package wire decodes and encodes the JSON bodies of the v1 wire in one
// pass without per-value reflection. It is the fast path in front of
// encoding/json on the hot wire routes of ascd, ascgw and the client. One
// plan per Go type serves both directions; Append (encode.go) writes
// exactly json.Marshal's bytes or declines.
//
// Decode accepts only canonical input, the shape encoding/json itself
// emits: exact-case known keys without escapes, no duplicate keys, string
// values that are valid UTF-8 with no surrogate escapes, integer literals
// in range for integer fields, base64 byte strings without escapes, and
// one value followed only by whitespace. Unknown keys are skipped, but no
// value may nest deeper than the target type can. On any other input it
// declines, with the target zeroed. Unmarshal, the one JSON body decoder
// of ascd, ascgw and the client, then runs json.Unmarshal on the same
// bytes, so every error text stays encoding/json's and both paths keep
// the one-value rule: a body is exactly one JSON value, and anything but
// whitespace after it is an error. On input Decode accepts, the decoded
// value is the one encoding/json would produce (FuzzWireDecode holds the
// two to that).
package wire

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"reflect"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// Decode decodes the JSON value in data into the non-nil pointer v and
// reports whether it did. v is zeroed first; on false it is left zero and
// the caller falls back to encoding/json.
func Decode(data []byte, v any) bool {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return false
	}
	e := rv.Elem()
	e.SetZero()
	r := rootFor(e.Type())
	if !r.ok {
		return false
	}
	d := decoders.Get().(*decoder)
	d.data, d.i, d.limit = data, 0, r.depth
	ok := d.value(r.plan, e, 0) && d.end()
	d.data = nil
	decoders.Put(d)
	if !ok {
		e.SetZero()
	}
	return ok
}

// Unmarshal is json.Unmarshal into a zeroed v, in one pass when Decode
// accepts data.
func Unmarshal(data []byte, v any) error {
	if Decode(data, v) {
		return nil
	}
	return json.Unmarshal(data, v)
}

// decoder is the state of one Decode: the input, the read position, and
// scratch space reused across calls.
type decoder struct {
	data  []byte
	i     int
	limit int // deepest container nesting admitted

	buf []byte // an escaped string's unescaped bytes
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// peek returns the byte at the read position, or 0 at the end of input (0
// never starts a JSON token).
func (d *decoder) peek() byte {
	if d.i < len(d.data) {
		return d.data[d.i]
	}
	return 0
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat consumes c after optional whitespace.
func (d *decoder) eat(c byte) bool {
	d.ws()
	if d.peek() != c {
		return false
	}
	d.i++
	return true
}

// end reports whether only whitespace follows the value.
func (d *decoder) end() bool {
	d.ws()
	return d.i == len(d.data)
}

// literal consumes the literal s.
func (d *decoder) literal(s string) bool {
	if len(d.data)-d.i < len(s) || string(d.data[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// next consumes the separator after an element of an array or object:
// it reports more=true after a comma and more=false at the closing c.
func (d *decoder) next(c byte) (more, ok bool) {
	d.ws()
	switch d.peek() {
	case ',':
		d.i++
		return true, true
	case c:
		d.i++
		return false, true
	}
	return false, false
}

// open consumes the opening c of a container that sits inside depth
// others, and reports whether it is empty (its closer consumed too).
func (d *decoder) open(c, closer byte, depth int) (empty, ok bool) {
	if depth >= d.limit || !d.eat(c) {
		return false, false
	}
	d.ws()
	if d.peek() == closer {
		d.i++
		return true, true
	}
	return false, true
}

// value decodes one JSON value into v by plan p. depth counts the
// containers around the value. A null leaves v zero, as encoding/json
// leaves a zero value untouched.
func (d *decoder) value(p *plan, v reflect.Value, depth int) bool {
	d.ws()
	if d.peek() == 'n' {
		return d.literal("null")
	}
	switch p.kind {
	case kStruct:
		return d.object(p, v, depth)
	case kPtr:
		nv := reflect.New(p.elem.typ)
		if !d.value(p.elem, nv.Elem(), depth) {
			return false
		}
		v.Set(nv)
		return true
	case kSlice:
		return d.slice(p, v, depth)
	case kMap:
		return d.mapping(p, v, depth)
	case kInt64s:
		return d.int64s(v.Addr().Interface().(*[]int64), depth)
	case kRows:
		return d.rows(v.Addr().Interface().(*[][]int64), depth)
	case kBytes:
		return d.blob(v)
	case kString:
		s, ok := d.str()
		if ok {
			v.SetString(s)
		}
		return ok
	case kBool:
		switch d.peek() {
		case 't':
			v.SetBool(true)
			return d.literal("true")
		case 'f':
			return d.literal("false")
		}
		return false
	case kInt:
		n, ok := d.int64()
		if !ok || v.OverflowInt(n) {
			return false
		}
		v.SetInt(n)
		return true
	case kUint:
		n, ok := d.uint64()
		if !ok || v.OverflowUint(n) {
			return false
		}
		v.SetUint(n)
		return true
	case kFloat:
		start, isNum := d.number()
		if !isNum {
			return false
		}
		f, err := strconv.ParseFloat(string(d.data[start:d.i]), p.bits)
		if err != nil || v.OverflowFloat(f) {
			return false
		}
		v.SetFloat(f)
		return true
	}
	return false
}

// object decodes a JSON object into the struct v.
func (d *decoder) object(p *plan, v reflect.Value, depth int) bool {
	empty, ok := d.open('{', '}', depth)
	if empty || !ok {
		return ok
	}
	var seen uint64
	for more := true; more; {
		key, ok := d.key()
		if !ok || !d.eat(':') {
			return false
		}
		f := lookup(p.fields, key)
		switch {
		case f >= 0:
			if seen&(1<<f) != 0 {
				return false
			}
			seen |= 1 << f
			fl := &p.fields[f]
			fv := v.Field(fl.index[0])
			for _, i := range fl.index[1:] {
				fv = fv.Field(i)
			}
			if !d.value(fl.plan, fv, depth+1) {
				return false
			}
		case folds(p.fields, key) || !d.skip(depth+1):
			return false
		}
		if more, ok = d.next('}'); !ok {
			return false
		}
	}
	return true
}

// lookup returns the index of the field named exactly key, or -1.
func lookup(fields []field, key []byte) int {
	for i := range fields {
		if fields[i].name == string(key) {
			return i
		}
	}
	return -1
}

// folds reports whether encoding/json might match the unknown key to a
// field case-insensitively: an ASCII fold match, or any non-ASCII byte
// (its fold rules reach beyond ASCII).
func folds(fields []field, key []byte) bool {
	for _, c := range key {
		if c >= utf8.RuneSelf {
			return true
		}
	}
	for i := range fields {
		if name := fields[i].name; len(name) == len(key) {
			j := 0
			for j < len(key) && lower(name[j]) == lower(key[j]) {
				j++
			}
			if j == len(key) {
				return true
			}
		}
	}
	return false
}

func lower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// key reads an object key: a string with no escapes.
func (d *decoder) key() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start := d.i
	for d.i < len(d.data) {
		c := d.data[d.i]
		switch {
		case c == '"':
			d.i++
			return d.data[start : d.i-1], true
		case c == '\\' || c < ' ':
			return nil, false
		}
		d.i++
	}
	return nil, false
}

// slice decodes a JSON array into the slice v element by element.
func (d *decoder) slice(p *plan, v reflect.Value, depth int) bool {
	empty, ok := d.open('[', ']', depth)
	if !ok {
		return false
	}
	if empty {
		v.Set(reflect.MakeSlice(p.typ, 0, 0))
		return true
	}
	for more := true; more; {
		n := v.Len()
		if n == v.Cap() {
			v.Grow(1)
		}
		v.SetLen(n + 1)
		if !d.value(p.elem, v.Index(n), depth+1) {
			return false
		}
		if more, ok = d.next(']'); !ok {
			return false
		}
	}
	return true
}

// mapping decodes a JSON object into the string-keyed map v.
func (d *decoder) mapping(p *plan, v reflect.Value, depth int) bool {
	empty, ok := d.open('{', '}', depth)
	if !ok {
		return false
	}
	m := reflect.MakeMap(p.typ)
	v.Set(m)
	if empty {
		return true
	}
	kt := p.typ.Key()
	for more := true; more; {
		key, ok := d.key()
		if !ok || !utf8.Valid(key) || !d.eat(':') {
			return false
		}
		kv := reflect.New(kt).Elem()
		kv.SetString(string(key))
		if m.MapIndex(kv).IsValid() {
			return false
		}
		ev := reflect.New(p.elem.typ).Elem()
		if !d.value(p.elem, ev, depth+1) {
			return false
		}
		m.SetMapIndex(kv, ev)
		if more, ok = d.next('}'); !ok {
			return false
		}
	}
	return true
}

// int64s decodes a JSON array of integers into *dst, one allocation of
// exactly the parsed length: the array's commas up to its first closing
// bracket count its elements before any is parsed.
func (d *decoder) int64s(dst *[]int64, depth int) bool {
	empty, ok := d.open('[', ']', depth)
	if !ok {
		return false
	}
	if empty {
		*dst = make([]int64, 0) // encoding/json decodes [] to an empty slice, not nil
		return true
	}
	n := 1
	if end := bytes.IndexByte(d.data[d.i:], ']'); end >= 0 {
		n += bytes.Count(d.data[d.i:d.i+end], comma)
	}
	*dst, ok = d.intList(make([]int64, 0, n))
	return ok
}

// rows decodes a JSON array of integer arrays into *dst. All rows share
// one backing array, each capped at its own length. The array's shape is
// counted first, so the rows and their values take one allocation each.
func (d *decoder) rows(dst *[][]int64, depth int) bool {
	empty, ok := d.open('[', ']', depth)
	if !ok {
		return false
	}
	if empty {
		*dst = make([][]int64, 0)
		return true
	}
	nrows, nints := d.shape()
	out := make([][]int64, 0, nrows)
	flat := make([]int64, 0, nints)
	for more := true; more; {
		d.ws()
		if d.peek() == 'n' {
			if !d.literal("null") {
				return false
			}
			out = append(out, nil)
		} else {
			empty, ok := d.open('[', ']', depth+1)
			if !ok {
				return false
			}
			start := len(flat)
			if !empty {
				if flat, ok = d.intList(flat); !ok {
					return false
				}
			}
			out = append(out, flat[start:len(flat):len(flat)])
		}
		if more, ok = d.next(']'); !ok {
			return false
		}
	}
	*dst = out
	return true
}

// shape counts the rows and the integers of the non-empty array of
// integer arrays whose opening bracket is consumed: it hops from row to
// row with vectorised byte scans, then counts the commas of the whole
// array in one more, since each row but the last adds a comma and each
// integer but a row's first adds one. The counts are exact on canonical
// input and only size allocations: parsing still checks every byte, so
// on input it will refuse they may be anything.
func (d *decoder) shape() (rows, ints int) {
	data, k, filled := d.data, d.i, 0
scan:
	for k < len(data) {
		switch data[k] {
		case ' ', '\t', '\n', '\r', ',':
			k++
			continue
		case '[':
			n := bytes.IndexByte(data[k:], ']')
			if n < 0 {
				return rows + 1, 0
			}
			if n > 1 {
				filled++
			}
			k += n + 1
		case 'n':
			k += len("null")
		case ']':
			break scan
		default:
			return rows, 0
		}
		rows++
	}
	commas := bytes.Count(data[d.i:min(k, len(data))], comma)
	return rows, max(commas-rows+1+filled, 0)
}

// comma is the separator that int64s and shape count.
var comma = []byte{','}

// intList appends the integers of a non-empty array, whose opening bracket
// is consumed, to ints and consumes its closing bracket. A null element is
// a zero, as encoding/json leaves it.
func (d *decoder) intList(ints []int64) ([]int64, bool) {
	data, i := d.data, d.i
	for {
		// The canonical element: at most 18 digits, always in range, and
		// its separator right after them.
		j := i
		neg := j < len(data) && data[j] == '-'
		if neg {
			j++
		}
		k, u := j, uint64(0)
		for k < len(data) {
			x := data[k] - '0'
			if x > 9 {
				break
			}
			u = u*10 + uint64(x)
			k++
		}
		if n := k - j; n > 0 && n <= 18 && (n == 1 || data[j] != '0') && k < len(data) {
			if sep := data[k]; sep == ',' || sep == ']' {
				v := int64(u)
				if neg {
					v = -v
				}
				ints, i = append(ints, v), k+1
				if sep == ']' {
					d.i = i
					return ints, true
				}
				continue
			}
		}
		// Anything else: whitespace, a null, a 19-digit value, or an error.
		d.i = i
		d.ws()
		if d.peek() == 'n' {
			if !d.literal("null") {
				return nil, false
			}
			ints = append(ints, 0)
		} else {
			n, ok := d.int64()
			if !ok {
				return nil, false
			}
			ints = append(ints, n)
		}
		more, ok := d.next(']')
		if !ok || !more {
			return ints, ok
		}
		i = d.i
	}
}

// digits parses an unsigned JSON integer at the read position: no sign,
// no leading zero, no fraction or exponent after it. It reports n, the
// digit count, with n=0 on a malformed integer. Only the low 64 bits of
// a value of 20 or more digits are kept.
func (d *decoder) digits() (u uint64, n int) {
	data, i := d.data, d.i
	for i < len(data) {
		c := data[i] - '0'
		if c > 9 {
			break
		}
		u = u*10 + uint64(c)
		i++
	}
	n = i - d.i
	if n == 0 || n > 1 && data[d.i] == '0' {
		return 0, 0
	}
	if i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E') {
		return 0, 0 // encoding/json refuses a fraction for an integer field
	}
	d.i = i
	return u, n
}

// int64 parses an integer literal in int64's range.
func (d *decoder) int64() (int64, bool) {
	neg := d.peek() == '-'
	if neg {
		d.i++
	}
	u, n := d.digits()
	switch {
	case n == 0 || n > 19:
		return 0, false
	case neg && u <= 1<<63:
		return int64(-u), true
	case !neg && u < 1<<63:
		return int64(u), true
	}
	return 0, false
}

// uint64 parses a non-negative integer literal in uint64's range.
func (d *decoder) uint64() (uint64, bool) {
	start := d.i
	u, n := d.digits()
	switch {
	case n == 0:
		return 0, false
	case n >= 20:
		var err error
		u, err = strconv.ParseUint(string(d.data[start:d.i]), 10, 64)
		return u, err == nil
	}
	return u, true
}

// number consumes a JSON number of any form and returns where it began.
func (d *decoder) number() (start int, ok bool) {
	data, i := d.data, d.i
	start = i
	if i < len(data) && data[i] == '-' {
		i++
	}
	run := func() int {
		j := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i - j
	}
	first := i
	if n := run(); n == 0 || n > 1 && data[first] == '0' {
		return start, false
	}
	if i < len(data) && data[i] == '.' {
		i++
		if run() == 0 {
			return start, false
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if run() == 0 {
			return start, false
		}
	}
	d.i = i
	return start, true
}

// str reads a string value. Escapes are decoded; a surrogate escape or
// invalid UTF-8, which encoding/json would rewrite, declines.
func (d *decoder) str() (string, bool) {
	if d.peek() != '"' {
		return "", false
	}
	d.i++
	start, wide := d.i, false
	for d.i < len(d.data) {
		c := d.data[d.i]
		switch {
		case c == '"':
			s := d.data[start:d.i]
			d.i++
			if wide && !utf8.Valid(s) {
				return "", false
			}
			return string(s), true
		case c == '\\':
			b, ok := d.unescape(append(d.buf[:0], d.data[start:d.i]...))
			d.buf = b[:0]
			if !ok || !utf8.Valid(b) {
				return "", false
			}
			return string(b), true
		case c < ' ':
			return "", false
		case c >= utf8.RuneSelf:
			wide = true
		}
		d.i++
	}
	return "", false
}

// unescape appends the rest of a string value to b, decoding escapes, and
// consumes its closing quote.
func (d *decoder) unescape(b []byte) ([]byte, bool) {
	for d.i < len(d.data) {
		c := d.data[d.i]
		switch {
		case c == '"':
			d.i++
			return b, true
		case c < ' ':
			return b, false
		case c != '\\':
			b = append(b, c)
			d.i++
			continue
		}
		if d.i+1 >= len(d.data) {
			return b, false
		}
		esc := d.data[d.i+1]
		d.i += 2
		switch esc {
		case '"', '\\', '/':
			b = append(b, esc)
		case 'b':
			b = append(b, '\b')
		case 'f':
			b = append(b, '\f')
		case 'n':
			b = append(b, '\n')
		case 'r':
			b = append(b, '\r')
		case 't':
			b = append(b, '\t')
		case 'u':
			r, ok := d.hex4()
			if !ok || utf16.IsSurrogate(r) {
				return b, false
			}
			b = utf8.AppendRune(b, r)
		default:
			return b, false
		}
	}
	return b, false
}

// skipStr consumes a string of a skipped value. It checks only what JSON
// requires: encoding/json accepts, and then discards, any escape or
// invalid UTF-8 there.
func (d *decoder) skipStr() bool {
	if d.peek() != '"' {
		return false
	}
	d.i++
	for d.i < len(d.data) {
		c := d.data[d.i]
		d.i++
		switch {
		case c == '"':
			return true
		case c < ' ':
			return false
		case c == '\\':
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i++
			case 'u':
				d.i++
				if _, ok := d.hex4(); !ok {
					return false
				}
			default:
				return false
			}
		}
	}
	return false
}

// hex4 reads the four hex digits of a \u escape.
func (d *decoder) hex4() (rune, bool) {
	if d.i+4 > len(d.data) {
		return 0, false
	}
	var r rune
	for _, c := range d.data[d.i : d.i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	d.i += 4
	return r, true
}

// blob decodes a base64 string straight into a new byte slice, sized as
// encoding/json sizes it.
func (d *decoder) blob(v reflect.Value) bool {
	if d.peek() != '"' {
		return false
	}
	d.i++
	n := bytes.IndexByte(d.data[d.i:], '"')
	if n < 0 {
		return false
	}
	s := d.data[d.i : d.i+n]
	// The base64 decoder skips CR and LF, which JSON forbids raw in a
	// string; any other control byte fails the decode.
	if bytes.IndexByte(s, '\\') >= 0 || bytes.IndexByte(s, '\n') >= 0 || bytes.IndexByte(s, '\r') >= 0 {
		return false
	}
	b := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	m, err := base64.StdEncoding.Decode(b, s)
	if err != nil {
		return false
	}
	v.SetBytes(b[:m])
	d.i += n + 1
	return true
}

// skip consumes and validates one JSON value of any shape, sitting inside
// depth containers, without decoding it.
func (d *decoder) skip(depth int) bool {
	d.ws()
	switch c := d.peek(); {
	case c == '{':
		empty, ok := d.open('{', '}', depth)
		if empty || !ok {
			return ok
		}
		for more := true; more; {
			d.ws()
			if !d.skipStr() || !d.eat(':') || !d.skip(depth+1) {
				return false
			}
			if more, ok = d.next('}'); !ok {
				return false
			}
		}
		return true
	case c == '[':
		empty, ok := d.open('[', ']', depth)
		if empty || !ok {
			return ok
		}
		for more := true; more; {
			if !d.skip(depth + 1) {
				return false
			}
			if more, ok = d.next(']'); !ok {
				return false
			}
		}
		return true
	case c == '"':
		return d.skipStr()
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	_, ok := d.number()
	return ok
}
