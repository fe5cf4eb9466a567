package specio

import (
	"strings"
	"testing"
)

type child struct {
	Rate float64 `json:"rate"`
}

type target struct {
	SpecVersion string  `json:"spec,omitempty"`
	Name        string  `json:"name"`
	WriteFrac   float64 `json:"write_fraction,omitempty"`
	Kids        []child `json:"kids,omitempty"`
	hidden      int     //nolint:unused // exercises the unexported-field skip
}

func TestParseStrictUnknownKeySuggests(t *testing.T) {
	var v target
	err := Parse(strings.NewReader(`{"name":"x","wirte_fraction":0.2}`), "spec.json", Header{Want: "t/1"}, &v)
	if err == nil {
		t.Fatal("want error for unknown key")
	}
	for _, frag := range []string{"spec.json", `"wirte_fraction"`, `did you mean "write_fraction"`} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q missing %q", err, frag)
		}
	}
}

func TestParseNestedUnknownKeySuggests(t *testing.T) {
	var v target
	err := Parse(strings.NewReader(`{"name":"x","kids":[{"rte":1}]}`), "spec.json", Header{}, &v)
	if err == nil {
		t.Fatal("want error for nested unknown key")
	}
	if !strings.Contains(err.Error(), `did you mean "rate"`) {
		t.Errorf("error %q missing nested suggestion", err)
	}
}

func TestParseUnknownKeyNoNearMatch(t *testing.T) {
	var v target
	err := Parse(strings.NewReader(`{"zzzzzzzz":1}`), "spec.json", Header{}, &v)
	if err == nil {
		t.Fatal("want error")
	}
	if strings.Contains(err.Error(), "did you mean") {
		t.Errorf("error %q suggested a key for a hopeless typo", err)
	}
}

func TestHeaderValidation(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		h       Header
		wantErr string
	}{
		{"match", `{"spec":"t/1","name":"x"}`, Header{Want: "t/1"}, ""},
		{"absent optional", `{"name":"x"}`, Header{Want: "t/1"}, ""},
		{"absent required", `{"name":"x"}`, Header{Want: "t/1", Required: true}, "missing version header"},
		{"mismatch", `{"spec":"t/2","name":"x"}`, Header{Want: "t/1"}, "unsupported spec version"},
		{"mismatch even optional", `{"spec":"other","name":"x"}`, Header{Want: "t/1"}, "unsupported spec version"},
		{"non-string", `{"spec":3,"name":"x"}`, Header{Want: "t/1"}, "not a string"},
		{"no check", `{"spec":"whatever","name":"x"}`, Header{}, ""},
		// The decoder matches keys case-insensitively; so must the check.
		{"case-folded match", `{"SPEC":"t/1","name":"x"}`, Header{Want: "t/1", Required: true}, ""},
		{"case-folded mismatch", `{"Spec":"t/2","name":"x"}`, Header{Want: "t/1"}, "unsupported spec version"},
		{"unicode-folded mismatch", `{"ſpec":"t/2","name":"x"}`, Header{Want: "t/1"}, "unsupported spec version"},
		{"second spelling mismatch", `{"spec":"t/1","SPEC":"t/2","name":"x"}`, Header{Want: "t/1"}, "unsupported spec version"},
	}
	for _, c := range cases {
		var v target
		err := Parse(strings.NewReader(c.in), "in", c.h, &v)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %v, want containing %q", c.name, err, c.wantErr)
		}
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		d    int
	}{
		{"", "", 0}, {"a", "", 1}, {"", "ab", 2},
		{"kitten", "sitting", 3}, {"orgs", "org", 1}, {"traces", "trace", 1},
	}
	for _, c := range cases {
		if got := levenshtein(c.a, c.b); got != c.d {
			t.Errorf("levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.d)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	var v target
	if err := Load(t.TempDir()+"/nope.json", Header{}, &v); err == nil {
		t.Fatal("want error for missing file")
	}
}
