package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzDecodeBody decodes one arbitrary body into every request type of the
// route table and holds the walker to its reference: an empty or
// whitespace-only body is the zero value, anything else is what
// json.Unmarshal makes of it. Both must accept or both refuse, and an
// accepted body must give deeply equal values.
func FuzzDecodeBody(f *testing.F) {
	for _, seed := range []string{
		``,
		" \t\r\n",
		`{"vector":[1,2.5,-3e-2],"k":3,"radius":1.5,"t":5,"early_stop":2,"max_radius":0.5,"filter_ids":[1,2,3]}`,
		`{"vectors":[[1,2],[3,4]],"k":2,"t":1,"filter_ids":[7]}`,
		`{"id":7}`,
		`{"id":7,"id":null}`,
		// Keys match case-insensitively and after unescaping.
		`{"VECTOR":[1],"K":4}`,
		`{"\u212a":3,"\u0076ector":[2],"\u0069D":1,"Vectors":[[1]],"\"":0}`,
		`{"vector":[1],"max_radiuſ":2,"𝄞":1,"\ud800":2,"\ud834\udd1e":3}`,
		// A repeated key reuses the earlier slice; a null element keeps
		// the value already there.
		`{"vector":[1,2,3],"vector":[4],"vector":[5,null,null]}`,
		`{"vectors":[[1,2],[3]],"vectors":[[9]],"vectors":[[8],[null,5],null]}`,
		`{"vector":[],"filter_ids":null,"vectors":[]}`,
		`{"vector":[1],"vector":[],"vector":[null]}`,
		`{"vector":null,"k":null,"id":[]}`,
		`{"vector":[1e39]}`,
		`{"k":1.5}`,
		`{"k":1e2,"t":-0}`,
		`{"k":"3","vector":"abc","id":true}`,
		`{"extra":{"a":[1,{"b":"\"}"}],"c":null},"k":2,"more":[[[]]],"s":"x\\"}`,
		`null`,
		`[]`,
		`7`,
		`"str"`,
		`{"k":1}{"k":2}`,
		`{"k":1} x`,
		"{\"k\":1}\n",
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode[searchRequest](t, body)
		checkDecode[batchRequest](t, body)
		checkDecode[deleteRequest](t, body)
		checkDecode[emptyRequest](t, body)
	})
}

// Every JSON field of every request type, embedded ones included, is one
// the walker decodes: a field added to a struct with a tag but not to its
// type's field method fails here, whatever the fuzzer's seeds name.
func TestDecodeKnowsEveryField(t *testing.T) {
	// sample is a non-zero value of type typ.
	var sample func(typ reflect.Type) reflect.Value
	sample = func(typ reflect.Type) reflect.Value {
		v := reflect.New(typ).Elem()
		switch typ.Kind() {
		case reflect.Int:
			v.SetInt(7)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(2.5)
		case reflect.Slice:
			v.Set(reflect.Append(v, sample(typ.Elem())))
		case reflect.Pointer:
			v.Set(sample(typ.Elem()).Addr())
		default:
			t.Fatalf("no sample for %v", typ)
		}
		return v
	}
	for _, typ := range []reflect.Type{
		reflect.TypeFor[searchRequest](), reflect.TypeFor[batchRequest](),
		reflect.TypeFor[deleteRequest](), reflect.TypeFor[emptyRequest](),
	} {
		for _, f := range reflect.VisibleFields(typ) {
			if f.Anonymous {
				continue
			}
			body, err := json.Marshal(map[string]any{f.Tag.Get("json"): sample(f.Type).Interface()})
			if err != nil {
				t.Fatal(err)
			}
			req := reflect.New(typ)
			if err := decodeBody(body, req.Interface().(request)); err != nil {
				t.Fatalf("%v %s: %v", typ, body, err)
			}
			if got := req.Elem().FieldByIndex(f.Index); got.IsZero() {
				t.Errorf("%v %s: field %s not decoded", typ, body, f.Name)
			}
		}
	}
}

func checkDecode[Req any, PReq interface {
	*Req
	request
}](t *testing.T, body []byte) {
	t.Helper()
	var got, want Req
	err := decodeBody(body, PReq(&got))
	var wantErr error
	if len(bytes.Trim(body, " \t\r\n")) > 0 {
		wantErr = json.Unmarshal(body, &want)
	}
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%T of %q: error %v, json.Unmarshal's %v", got, body, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%T of %q: got %+v, json.Unmarshal gives %+v", got, body, got, want)
	}
}

// BenchmarkDecodeBody decodes one /search body of a 128-float query, the
// body the benchmark's clustered-http client sends: json.Marshal of the
// query and k.
func BenchmarkDecodeBody(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := make([]float32, 128)
	for i := range q {
		q[i] = float32(rng.NormFloat64() * 10)
	}
	body, err := json.Marshal(map[string]any{"vector": q, "k": 10})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		var req searchRequest
		if err := decodeBody(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}
