package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// FuzzWorkloadSpec feeds arbitrary bytes to ParseSpec, which must never
// panic. A spec that parses must survive a JSON round trip: re-parsing
// json.Marshal(spec) yields the same spec and the same Validate verdict.
// omitempty encodes an empty list as an absent one, and the two mean the
// same spec, so empty lists compare as nil at every depth (clients,
// phases). Generate is never called: a fuzzed request count is
// unbounded.
func FuzzWorkloadSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal parsed spec: %v", err)
		}
		again, err := ParseSpec(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-parse %s: %v", raw, err)
		}
		nilEmptyLists(reflect.ValueOf(&spec).Elem())
		nilEmptyLists(reflect.ValueOf(&again).Elem())
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", again, spec)
		}
		if v1, v2 := fmt.Sprint(spec.Validate()), fmt.Sprint(again.Validate()); v1 != v2 {
			t.Fatalf("round trip changed the verdict: %q, then %q", v1, v2)
		}
	})
}

// nilEmptyLists sets every empty slice reachable from v, a settable
// struct or slice value, to nil.
func nilEmptyLists(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			nilEmptyLists(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
		}
		for i := 0; i < v.Len(); i++ {
			nilEmptyLists(v.Index(i))
		}
	}
}
