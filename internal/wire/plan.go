package wire

import (
	"encoding"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
)

// kind is how a plan decodes one JSON value.
type kind uint8

const (
	kStruct kind = iota
	kPtr
	kSlice
	kMap
	kInt64s // exactly []int64: digits parsed in place
	kRows   // exactly [][]int64: every row shares one backing array
	kBytes  // a byte slice: base64 straight into the destination
	kString
	kBool
	kInt
	kUint
	kFloat
)

// maxDepth caps the nesting a plan admits: the depth of a recursive type,
// and any type nested deeper than this.
const maxDepth = 32

// minDepth is the nesting admitted under any target, however shallow: the
// deepest v1 body (a session list, down to an envelope's image rows) nests
// 8 containers, so a small target read from a large body, such as the
// session id of a session result, still skips the rest of it.
const minDepth = 8

// plan is the recipe of one Go type, built once by reflection: Decode
// reads a JSON value by it and Append writes one.
type plan struct {
	kind   kind
	typ    reflect.Type
	elem   *plan   // kPtr, kSlice, kMap (the value)
	fields []field // kStruct, embedded structs flattened
	bits   int     // kFloat
}

// field is one JSON key of a struct plan.
type field struct {
	name      string
	index     []int // reflect field path; longer than 1 for a promoted field
	plan      *plan
	omitEmpty bool // the ",omitempty" option
}

// root is the cached plan of a decode target or an encoded value.
type root struct {
	plan *plan
	// depth is the deepest container nesting a value of the type holds,
	// and at least minDepth; the decoder refuses input nested deeper,
	// skipped values included, so skipping never recurses without bound.
	depth int
	// ok is false when some reachable type is outside what Decode and
	// Append reproduce exactly; both then always decline.
	ok bool
}

var (
	roots sync.Map // reflect.Type -> *root

	int64sType        = reflect.TypeFor[[]int64]()
	rowsType          = reflect.TypeFor[[][]int64]()
	numberType        = reflect.TypeFor[json.Number]()
	unmarshalerType   = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshalType = reflect.TypeFor[encoding.TextUnmarshaler]()
	marshalerType     = reflect.TypeFor[json.Marshaler]()
	textMarshalType   = reflect.TypeFor[encoding.TextMarshaler]()
)

// rootFor returns the cached root plan of t, building it on first use.
func rootFor(t reflect.Type) *root {
	if r, ok := roots.Load(t); ok {
		return r.(*root)
	}
	b := builder{plans: map[reflect.Type]*plan{}}
	p := b.build(t)
	r := &root{plan: p, depth: max(depthOf(p, map[*plan]bool{}), minDepth), ok: !b.bad}
	actual, _ := roots.LoadOrStore(t, r)
	return actual.(*root)
}

// builder builds the plans of one root type. A type reached twice (or
// recursively) shares one plan.
type builder struct {
	plans map[reflect.Type]*plan
	bad   bool
}

// custom reports whether encoding/json would hand t's values to a method
// of t, in either direction, instead of coding them itself, or treats t
// specially (json.Number).
func custom(t reflect.Type) bool {
	if t == numberType {
		return true
	}
	pt := reflect.PointerTo(t)
	for _, m := range []reflect.Type{unmarshalerType, textUnmarshalType, marshalerType, textMarshalType} {
		if t.Implements(m) || pt.Implements(m) {
			return true
		}
	}
	return false
}

func (b *builder) build(t reflect.Type) *plan {
	if p := b.plans[t]; p != nil {
		return p
	}
	p := &plan{typ: t}
	b.plans[t] = p
	if custom(t) {
		b.bad = true
		return p
	}
	switch t {
	case int64sType:
		p.kind = kInt64s
		return p
	case rowsType:
		p.kind = kRows
		return p
	}
	switch t.Kind() {
	case reflect.Bool:
		p.kind = kBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		p.kind = kInt
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		p.kind = kUint
	case reflect.Float32, reflect.Float64:
		p.kind, p.bits = kFloat, t.Bits()
	case reflect.String:
		p.kind = kString
	case reflect.Pointer:
		p.kind, p.elem = kPtr, b.build(t.Elem())
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			p.kind = kBytes
			b.bad = b.bad || custom(t.Elem())
		} else {
			p.kind, p.elem = kSlice, b.build(t.Elem())
		}
	case reflect.Map:
		kt := t.Key()
		if kt.Kind() != reflect.String || custom(kt) {
			b.bad = true
		}
		p.kind, p.elem = kMap, b.build(t.Elem())
	case reflect.Struct:
		p.kind = kStruct
		b.fields(p, t, nil)
		if len(p.fields) > 64 {
			b.bad = true // the duplicate-key check keeps one bit per field
		}
		for i := range p.fields {
			for _, g := range p.fields[:i] {
				if g.name == p.fields[i].name {
					b.bad = true // encoding/json's dominance rules decide
				}
			}
		}
	default:
		b.bad = true
	}
	return p
}

// fields appends t's JSON fields to p, in encoding/json's order,
// promoting untagged embedded structs the way encoding/json does.
// Anything subtler than that (an embedded pointer, a ",string" or
// ",omitzero" option, an unusual tag name) marks the plan unsupported
// rather than guessing.
func (b *builder) fields(p *plan, t reflect.Type, index []int) {
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag := sf.Tag.Get("json")
		if tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		opts = "," + opts + ","
		if strings.Contains(opts, ",string,") || strings.Contains(opts, ",omitzero,") {
			b.bad = true
		}
		path := append(index[:len(index):len(index)], i)
		if sf.Anonymous {
			switch {
			case sf.Type.Kind() == reflect.Pointer:
				b.bad = true
				continue
			case sf.Type.Kind() == reflect.Struct && name == "":
				b.fields(p, sf.Type, path)
				continue
			case !sf.IsExported():
				// encoding/json keeps a named unexported embedded struct.
				b.bad = b.bad || sf.Type.Kind() == reflect.Struct
				continue
			}
		} else if !sf.IsExported() {
			continue
		}
		if name == "" {
			name = sf.Name
		}
		if !sf.IsExported() || !plainName(name) {
			b.bad = true
		}
		p.fields = append(p.fields, field{name: name, index: path, plan: b.build(sf.Type),
			omitEmpty: strings.Contains(opts, ",omitempty,")})
	}
}

// plainName reports whether a tag name is one encoding/json takes as is.
func plainName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// depthOf is the deepest container nesting a value of p's type can hold,
// capped at maxDepth (and maxDepth for a recursive type).
func depthOf(p *plan, stack map[*plan]bool) int {
	if stack[p] {
		return maxDepth
	}
	stack[p] = true
	defer delete(stack, p)
	d := 0
	switch p.kind {
	case kStruct:
		for _, f := range p.fields {
			d = max(d, depthOf(f.plan, stack))
		}
		d++
	case kSlice, kMap:
		d = 1 + depthOf(p.elem, stack)
	case kPtr:
		d = depthOf(p.elem, stack)
	case kInt64s:
		d = 1
	case kRows:
		d = 2
	}
	return min(d, maxDepth)
}
