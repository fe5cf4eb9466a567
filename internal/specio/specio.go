// Package specio is the shared strict JSON loader behind every
// declarative spec file the simulator consumes (campaign grids, workload
// specs). It exists so a typoed key fails loudly — with a "did you mean"
// suggestion — instead of silently defaulting, and so spec files carry a
// versioned header that is checked once, in one place.
package specio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
)

// headerKey is the JSON key holding a spec file's version string.
const headerKey = "spec"

// Header describes the version header a spec format expects. The header
// is the plain JSON string field "spec" whose value names the format and
// revision, e.g. "raidsim-workload/1".
type Header struct {
	// Want is the exact version string this reader understands; empty
	// disables the check entirely.
	Want string
	// Required refuses inputs that omit the header. Leave false for
	// formats that predate versioning (their existing files must keep
	// loading); the header is still validated when present.
	Required bool
}

// Load reads the file at path and decodes it into v (a struct pointer)
// with strict key checking and header validation.
func Load(path string, h Header, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := Parse(bytes.NewReader(raw), path, h, v); err != nil {
		return err
	}
	return nil
}

// Parse decodes JSON from r into v (a struct pointer), rejecting unknown
// fields with a nearest-key suggestion and validating the version header.
// what names the input (a path, "stdin") in error messages.
func Parse(r io.Reader, what string, h Header, v any) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if h.Want != "" {
		if err := checkHeader(raw, what, h); err != nil {
			return err
		}
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if key, ok := unknownField(err); ok {
			msg := fmt.Sprintf("%s: unknown key %q", what, key)
			if sug := suggest(key, knownKeys(reflect.TypeOf(v))); sug != "" {
				msg += fmt.Sprintf(" (did you mean %q?)", sug)
			}
			return fmt.Errorf("%s", msg)
		}
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// checkHeader extracts the version field from the raw document and
// compares it against the expected string. encoding/json matches keys
// case-insensitively, so every key the decoder would store in the
// header field ("spec", "SPEC", "Spec", ...) must carry the version.
func checkHeader(raw []byte, what string, h Header) error {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	found := false
	for k, fv := range top {
		if !strings.EqualFold(k, headerKey) {
			continue
		}
		found = true
		var got string
		if err := json.Unmarshal(fv, &got); err != nil {
			return fmt.Errorf("%s: version header %q is not a string", what, k)
		}
		if got != h.Want {
			return fmt.Errorf("%s: unsupported spec version %q (this reader understands %q)", what, got, h.Want)
		}
	}
	if !found && h.Required {
		return fmt.Errorf("%s: missing version header: want %q: %q", what, headerKey, h.Want)
	}
	return nil
}

// unknownField extracts the offending key from encoding/json's
// DisallowUnknownFields error, which is a plain errors.New with the shape
// `json: unknown field "xyz"`.
func unknownField(err error) (string, bool) {
	const prefix = `json: unknown field "`
	msg := err.Error()
	if !strings.HasPrefix(msg, prefix) || !strings.HasSuffix(msg, `"`) {
		return "", false
	}
	return msg[len(prefix) : len(msg)-1], true
}

// knownKeys walks the target type and collects every JSON key reachable
// at any nesting level (struct fields, slice elements, map values), so a
// typo inside a nested clause still gets a suggestion.
func knownKeys(t reflect.Type) []string {
	seen := make(map[reflect.Type]bool)
	keys := make(map[string]bool)
	var walk func(reflect.Type)
	walk = func(t reflect.Type) {
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
			walk(t.Elem())
		case reflect.Struct:
			if seen[t] {
				return
			}
			seen[t] = true
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				if !f.IsExported() {
					continue
				}
				tag := f.Tag.Get("json")
				name := strings.Split(tag, ",")[0]
				if name == "-" {
					continue
				}
				if name == "" {
					name = f.Name
				}
				keys[name] = true
				walk(f.Type)
			}
		}
	}
	walk(t)
	out := make([]string, 0, len(keys))
	for k := range keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// suggest returns the known key closest to got, if it is close enough to
// plausibly be a typo (edit distance at most max(2, len/3)).
func suggest(got string, known []string) string {
	best, bestD := "", 1<<30
	for _, k := range known {
		if d := levenshtein(got, k); d < bestD {
			best, bestD = k, d
		}
	}
	limit := len(got) / 3
	if limit < 2 {
		limit = 2
	}
	if bestD > limit {
		return ""
	}
	return best
}

// levenshtein is the classic two-row edit distance.
func levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
