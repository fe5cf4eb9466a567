package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// FuzzCampaignSpec feeds arbitrary bytes to ParseSpec, which must never
// panic. A spec that parses must survive a JSON round trip: re-parsing
// json.Marshal(spec) yields the same spec and the same Validate verdict.
// An empty axis list and an absent one are the same spec (both take the
// default), and omitempty encodes the former as the latter, so empty
// lists compare as nil. Points is never called: a fuzzed seeds count or
// axis list can expand to an unbounded grid.
func FuzzCampaignSpec(f *testing.F) {
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
		if a, b := nilEmptyLists(spec), nilEmptyLists(again); !reflect.DeepEqual(a, b) {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", b, a)
		}
		if v1, v2 := fmt.Sprint(spec.Validate()), fmt.Sprint(again.Validate()); v1 != v2 {
			t.Fatalf("round trip changed the verdict: %q, then %q", v1, v2)
		}
	})
}

// nilEmptyLists returns s with every empty slice field set to nil.
func nilEmptyLists(s Spec) Spec {
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice && f.Len() == 0 {
			f.Set(reflect.Zero(f.Type()))
		}
	}
	return s
}
