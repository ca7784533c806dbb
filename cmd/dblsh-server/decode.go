package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"unicode/utf8"
)

// request is a body's decode target. field decodes the value of an object
// key that names one of its fields (walker.is) and reports whether it did;
// the walker skips the value of a key that names none.
type request interface {
	field(d *walker, key []byte) bool
}

// readBody reads the whole body, at most limit bytes of it, into a buffer
// sized from Content-Length. An announced length reserves at most 1 MiB;
// a larger body earns its buffer as it arrives.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), limit, 1<<20)+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// decodeBody decodes body into req in two passes and no reflection:
// json.Valid checks the grammar, so the syntax errors and the nesting limit
// stay the standard library's, then a walker reads the typed fields out of
// the validated bytes. A body gets the value and the verdict json.Unmarshal
// gives it, except that an empty or whitespace-only body leaves req as it
// is; FuzzDecodeBody holds the two together.
func decodeBody(body []byte, req request) error {
	d := walker{b: body}
	c := d.peek()
	switch {
	case d.i == len(body):
		return nil
	case !json.Valid(body):
		return json.Compact(new(bytes.Buffer), body) // Valid's scanner, with its error
	case c == '{':
		d.object(req)
	case c != 'n': // null is the zero request
		return errors.New("a request body must be a JSON object")
	}
	return d.err
}

// walker reads one JSON value that json.Valid accepted, so it checks no
// grammar. A value of the wrong kind for its field is skipped and the walk
// goes on, as encoding/json's does; the first such error refuses the body.
type walker struct {
	b     []byte
	i     int
	err   error
	field string // the last key matched, for errors
}

// peek steps over whitespace and returns the byte after it, 0 at the end.
func (d *walker) peek() byte {
	for ; d.i < len(d.b); d.i++ {
		if c := d.b[d.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// object walks the object at d.i, handing each key to req.
func (d *walker) object(req request) {
	for d.i++; d.peek() != '}'; {
		key := d.str()
		if bytes.IndexByte(key, '\\') >= 0 {
			key = unescape(key)
		}
		d.peek()
		d.i++ // ':'
		if d.peek(); !req.field(d, key) {
			d.skip()
		}
		if d.peek() == ',' {
			d.i++
		}
	}
	d.i++
}

// is reports whether key names the field name, and if it does, decodes the
// field's value. bytes.EqualFold is encoding/json's test for a key, so "K"
// (the Kelvin sign) names "k".
func (d *walker) is(key []byte, name string, decode func()) bool {
	if !bytes.EqualFold(key, []byte(name)) {
		return false
	}
	d.field = name
	decode()
	return true
}

// str steps past the string at d.i and returns what stands between its
// quotes, escapes unresolved.
func (d *walker) str() []byte {
	start := d.i + 1
	for d.i = start; d.b[d.i] != '"'; d.i++ {
		if d.b[d.i] == '\\' {
			d.i++
		}
	}
	d.i++
	return d.b[start : d.i-1]
}

// ends marks the bytes that end a number or a literal.
var ends = [256]bool{',': true, ']': true, '}': true, ' ': true, '\t': true, '\n': true, '\r': true}

// literal steps past the number, true, false or null at d.i and returns it.
func (d *walker) literal() []byte {
	b, start, i := d.b, d.i, d.i
	for i < len(b) && !ends[b[i]] {
		i++
	}
	d.i = i
	return b[start:i]
}

// skip steps past the value at d.i, whatever it is.
func (d *walker) skip() {
	for depth := 0; ; {
		switch c := d.b[d.i]; {
		case c == '"':
			d.str()
		case c == '{' || c == '[':
			depth++
			d.i++
		case c == '}' || c == ']':
			depth--
			d.i++
		case depth == 0:
			d.literal()
		default:
			d.i++
		}
		if depth == 0 {
			return
		}
	}
}

// null steps past a null at d.i and reports whether there was one.
func (d *walker) null() bool {
	if d.b[d.i] != 'n' {
		return false
	}
	d.i += 4
	return true
}

// mismatch skips the value at d.i, which is of the wrong kind, and fails.
func (d *walker) mismatch() {
	start := d.i
	d.skip()
	d.fail(start)
}

// fail records, unless an error came first, that the value d.b[start:d.i]
// does not fit the field being decoded.
func (d *walker) fail(start int) {
	if d.err == nil {
		d.err = fmt.Errorf("cannot unmarshal %.32q into field %q", d.b[start:d.i], d.field)
	}
}

// number decodes the number at d.i into *p with the strconv call
// encoding/json makes, so a fraction or an exponent is no int and a
// float32 that overflows is refused. A null leaves *p as it is.
func number[T int | float32 | float64](d *walker, p *T) {
	if c := d.b[d.i]; c != '-' && (c < '0' || c > '9') {
		if !d.null() {
			d.mismatch()
		}
		return
	}
	start := d.i
	lit := d.literal()
	var err error
	switch p := any(p).(type) {
	case *int:
		*p, err = strconv.Atoi(string(lit))
	case *float32:
		var f float64
		f, err = strconv.ParseFloat(string(lit), 32)
		*p = float32(f)
	case *float64:
		*p, err = strconv.ParseFloat(string(lit), 64)
	}
	if err != nil {
		d.fail(start)
	}
}

// slice decodes the array at d.i into *s as encoding/json does: null sets
// nil and [] a new empty slice. Other elements land in *s's backing array,
// capacity included, so a repeated key overwrites the earlier slice in
// place and a null element keeps the value already there.
func slice[T any](d *walker, s *[]T, elem func(*walker, *T)) {
	if d.null() {
		*s = nil
		return
	}
	if d.b[d.i] != '[' {
		d.mismatch()
		return
	}
	v, n := *s, 0
	if end := bytes.IndexByte(d.b[d.i:], ']'); v == nil && bytes.IndexByte(d.b[d.i+1:d.i+end], '[') < 0 {
		v = make([]T, 0, bytes.Count(d.b[d.i:d.i+end], []byte(","))+1) // a flat array's length
	}
	for d.i++; d.peek() != ']'; n++ {
		if n == cap(v) {
			var zero T
			v = append(v[:n], zero)
		}
		v = v[:n+1]
		elem(d, &v[n])
		if d.peek() == ',' {
			d.i++
		}
	}
	d.i++
	if n == 0 {
		v = []T{}
	}
	*s = v[:n]
}

// unescape resolves a key's \u escapes, the only escapes that can spell a
// field name. A surrogate, paired or not, becomes U+FFFD and any other
// escape a backslash: no field name holds either, so a key matches a name
// exactly when encoding/json's unquoted key does.
func unescape(s []byte) []byte {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] != '\\':
			out = append(out, s[i])
		case s[i+1] == 'u':
			r, _ := strconv.ParseUint(string(s[i+2:i+6]), 16, 32) // four hex digits: json.Valid saw them
			out = utf8.AppendRune(out, rune(r))
			i += 5
		default:
			out = append(out, '\\')
			i++
		}
	}
	return out
}
