package report

import (
	"encoding"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// Encode marshals the report as indented JSON with a trailing newline:
// byte for byte json.MarshalIndent(r, "", "  ") plus "\n", which the
// tests hold it to. Encoding is deterministic: struct fields marshal
// in declaration order and the document carries no timestamps, so
// identical runs produce identical bytes.
//
// A sizing pass walks the report into a small scratch buffer that is
// counted and emptied at every slice element; the fill pass then walks
// it again into a buffer of exactly that size, so the output is the
// only large allocation.
func (r *Report) Encode() ([]byte, error) {
	enc, err := encoderOf(reflect.TypeOf(r), nil)
	if err != nil {
		return nil, err
	}
	v := reflect.ValueOf(r)
	size := encoder{buf: make([]byte, 0, 4<<10), sizing: true}
	enc(&size, v, 0)
	if size.err != nil {
		return nil, size.err
	}
	n := size.n + len(size.buf) + 1
	fill := encoder{buf: make([]byte, 0, n)}
	enc(&fill, v, 0)
	fill.buf = append(fill.buf, '\n')
	if len(fill.buf) != n {
		return nil, fmt.Errorf("report: encoding wrote %d bytes, sized %d", len(fill.buf), n)
	}
	return fill.buf, nil
}

// encoder is one Encode pass's state. In the sizing pass buf is
// scratch that flush empties into n; in the fill pass buf is the
// output.
type encoder struct {
	buf    []byte
	n      int
	sizing bool
	err    error // first plain float64 that JSON cannot hold
}

func (e *encoder) flush() {
	if e.sizing {
		e.n += len(e.buf)
		e.buf = e.buf[:0]
	}
}

const spaces = "                                "

// newline starts a line indented for the given nesting depth.
func (e *encoder) newline(depth int) {
	e.buf = append(e.buf, '\n')
	for n := 2 * depth; n > 0; n -= len(spaces) {
		e.buf = append(e.buf, spaces[:min(n, len(spaces))]...)
	}
}

// encFunc appends v's JSON, whose first line is already indented for
// depth, to e.buf.
type encFunc func(e *encoder, v reflect.Value, depth int)

// encoders caches one encFunc per type; Encode may run concurrently.
var encoders sync.Map // reflect.Type -> encFunc

var (
	floatType         = reflect.TypeOf(Float(0))
	marshalerType     = reflect.TypeOf((*json.Marshaler)(nil)).Elem()
	textMarshalerType = reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem()
)

// encoderOf returns t's cached encoder, building it on first use.
// building holds the types whose encoders are being built, to reject
// recursive types; nil starts a new build.
func encoderOf(t reflect.Type, building map[reflect.Type]bool) (encFunc, error) {
	if f, ok := encoders.Load(t); ok {
		return f.(encFunc), nil
	}
	if building == nil {
		building = map[reflect.Type]bool{}
	}
	if building[t] {
		return nil, fmt.Errorf("report: cannot encode recursive type %v", t)
	}
	building[t] = true
	defer delete(building, t)
	f, err := newEncoder(t, building)
	if err != nil {
		return nil, err
	}
	cached, _ := encoders.LoadOrStore(t, f)
	return cached.(encFunc), nil
}

// newEncoder builds t's encoder. It accepts only the kinds the report
// schema uses and encodes them as encoding/json would; any other kind,
// and any type with its own marshaler but Float, is an error, so a
// field added later fails loudly instead of encoding differently.
func newEncoder(t reflect.Type, building map[reflect.Type]bool) (encFunc, error) {
	if t == floatType {
		return func(e *encoder, v reflect.Value, _ int) { e.buf = Float(v.Float()).AppendJSON(e.buf) }, nil
	}
	for _, m := range []reflect.Type{marshalerType, textMarshalerType} {
		if t.Implements(m) || reflect.PointerTo(t).Implements(m) {
			return nil, fmt.Errorf("report: cannot encode %v: it implements %v", t, m)
		}
	}
	switch t.Kind() {
	case reflect.Bool:
		return func(e *encoder, v reflect.Value, _ int) { e.buf = strconv.AppendBool(e.buf, v.Bool()) }, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(e *encoder, v reflect.Value, _ int) { e.buf = strconv.AppendInt(e.buf, v.Int(), 10) }, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return func(e *encoder, v reflect.Value, _ int) { e.buf = strconv.AppendUint(e.buf, v.Uint(), 10) }, nil
	case reflect.Float64:
		return encodeFloat64, nil
	case reflect.String:
		return func(e *encoder, v reflect.Value, _ int) { e.buf = appendString(e.buf, v.String()) }, nil
	case reflect.Pointer:
		elem, err := encoderOf(t.Elem(), building)
		if err != nil {
			return nil, err
		}
		return func(e *encoder, v reflect.Value, depth int) {
			if v.IsNil() {
				e.buf = append(e.buf, "null"...)
				return
			}
			elem(e, v.Elem(), depth)
		}, nil
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return nil, fmt.Errorf("report: cannot encode %v: byte slices encode as base64", t)
		}
		elem, err := encoderOf(t.Elem(), building)
		if err != nil {
			return nil, err
		}
		return func(e *encoder, v reflect.Value, depth int) {
			if v.IsNil() {
				e.buf = append(e.buf, "null"...)
				return
			}
			n := v.Len()
			if n == 0 {
				e.buf = append(e.buf, "[]"...)
				return
			}
			e.buf = append(e.buf, '[')
			for i := 0; i < n; i++ {
				if i > 0 {
					e.buf = append(e.buf, ',')
				}
				e.flush()
				e.newline(depth + 1)
				elem(e, v.Index(i), depth+1)
			}
			e.newline(depth)
			e.buf = append(e.buf, ']')
		}, nil
	case reflect.Struct:
		return newStructEncoder(t, building)
	}
	return nil, fmt.Errorf("report: cannot encode %v: kind %v is not supported", t, t.Kind())
}

// field is one struct field's place in its struct's encoding.
type field struct {
	key       string // quoted name, colon and space
	index     int
	omitEmpty bool
	enc       encFunc
}

// newStructEncoder plans t's fields from their json tags: a field
// tagged "-" and an unexported field are skipped, an untagged one uses
// its Go name, and omitempty is the only option.
func newStructEncoder(t reflect.Type, building map[reflect.Type]bool) (encFunc, error) {
	var fields []field
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Anonymous {
			return nil, fmt.Errorf("report: cannot encode %v: embedded field %s", t, sf.Name)
		}
		tag := sf.Tag.Get("json")
		if !sf.IsExported() || tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" {
			name = sf.Name
		}
		if opts != "" && opts != "omitempty" {
			return nil, fmt.Errorf("report: cannot encode %v.%s: json option %q", t, sf.Name, opts)
		}
		if strings.Trim(name, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-") != "" {
			return nil, fmt.Errorf("report: cannot encode %v.%s: key %q needs escaping", t, sf.Name, name)
		}
		enc, err := encoderOf(sf.Type, building)
		if err != nil {
			return nil, fmt.Errorf("%w (field %v.%s)", err, t, sf.Name)
		}
		fields = append(fields, field{key: `"` + name + `": `, index: i, omitEmpty: opts == "omitempty", enc: enc})
	}
	return func(e *encoder, v reflect.Value, depth int) {
		open := false
		for i := range fields {
			f := &fields[i]
			fv := v.Field(f.index)
			if f.omitEmpty && isEmpty(fv) {
				continue
			}
			if open {
				e.buf = append(e.buf, ',')
			} else {
				e.buf = append(e.buf, '{')
				open = true
			}
			e.newline(depth + 1)
			e.buf = append(e.buf, f.key...)
			f.enc(e, fv, depth+1)
		}
		if !open {
			e.buf = append(e.buf, "{}"...)
			return
		}
		e.newline(depth)
		e.buf = append(e.buf, '}')
	}, nil
}

// isEmpty is encoding/json's omitempty test for the supported kinds.
func isEmpty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Bool:
		return !v.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v.Int() == 0
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return v.Uint() == 0
	case reflect.Float64:
		return v.Float() == 0
	case reflect.Pointer:
		return v.IsNil()
	}
	return false
}

// encodeFloat64 writes a plain float64 as encoding/json does: 'f' form
// unless the magnitude is below 1e-6 or at least 1e21, and then 'e'
// form with a two-digit negative exponent trimmed (1e-07 as 1e-7).
// NaN and ±Inf are errors, as they are for json.Marshal.
func encodeFloat64(e *encoder, v reflect.Value, _ int) {
	f := v.Float()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: v, Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if n := len(e.buf); format == 'e' && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
		e.buf[n-2] = e.buf[n-1]
		e.buf = e.buf[:n-1]
	}
}

// appendString quotes s as encoding/json does with HTML escaping on:
// <, > and & as \u003c, \u003e and \u0026, control bytes as short or
// \u00XX escapes, U+2028 and U+2029 escaped, and each invalid UTF-8
// byte as \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
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
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			if r == utf8.RuneError {
				b = append(b, `\ufffd`...)
			} else {
				b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
			}
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
