package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"raidsim/internal/obs"
)

// spanRec is one span flattened out of the Chrome trace-event export.
type spanRec struct {
	name   string
	parent string // parent span's name; "" for roots
	class  string // root class (request class or background root name)
	durMS  float64
	root   bool
}

// runSpans analyzes a span export written by raidsim -trace-spans:
// Chrome trace-event JSON.
func runSpans(path string) {
	recs, err := loadSpansChrome(path)
	if err != nil {
		fatal(err)
	}
	if len(recs) == 0 {
		fmt.Println("no spans in export")
		return
	}

	byClass := map[string]int{}
	for _, r := range recs {
		if r.root {
			byClass[r.class]++
		}
	}
	fmt.Printf("span trees: %d (%d spans total)\n", sumMap(byClass), len(recs))
	for _, c := range sortedKeys(byClass) {
		fmt.Printf("  %-18s %d\n", c, byClass[c])
	}

	fmt.Println("\nper-stage durations (ms):")
	fmt.Printf("  %-16s %6s %9s %9s %9s\n", "stage", "count", "mean", "p95", "max")
	byName := map[string][]float64{}
	for _, r := range recs {
		if !r.root {
			byName[r.name] = append(byName[r.name], r.durMS)
		}
	}
	for _, name := range sortedKeysF(byName) {
		d := byName[name]
		fmt.Printf("  %-16s %6d %9.3f %9.3f %9.3f\n", name, len(d), mean(d), p95(d), maxOf(d))
	}

	// RMW legs: the disk-layer phases of a read-modify-write, split by
	// whether they served the data or the parity access — the read-old
	// under "rmw-parity" is the read-old-parity leg of the paper's small
	// write.
	legs := map[string][]float64{}
	for _, r := range recs {
		switch r.name {
		case obs.SpanReadOld, obs.SpanRealign, obs.SpanHold, obs.SpanWriteNew:
			legs[r.name+" <- "+r.parent] = append(legs[r.name+" <- "+r.parent], r.durMS)
		}
	}
	if len(legs) > 0 {
		fmt.Println("\nRMW leg breakdown (ms):")
		fmt.Printf("  %-30s %6s %9s %9s\n", "leg <- device op", "count", "mean", "p95")
		for _, k := range sortedKeysF(legs) {
			d := legs[k]
			fmt.Printf("  %-30s %6d %9.3f %9.3f\n", k, len(d), mean(d), p95(d))
		}
	}
}

func loadSpansChrome(path string) ([]spanRec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Schema string `json:"schema"`
		Events []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Dur  float64                `json:"dur"` // microseconds
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if doc.Schema != "" && doc.Schema != obs.SpanSchemaVersion {
		return nil, fmt.Errorf("%s: schema %q, this tool reads %q", path, doc.Schema, obs.SpanSchemaVersion)
	}
	var recs []spanRec
	for _, e := range doc.Events {
		if e.Ph != "X" {
			continue
		}
		r := spanRec{name: e.Name, durMS: e.Dur / 1e3}
		if p, ok := e.Args["parent"].(string); ok {
			r.parent = p
		} else {
			r.root = true
			if c, ok := e.Args["class"].(string); ok {
				r.class = c
			} else {
				r.class = e.Name
			}
		}
		recs = append(recs, r)
	}
	return recs, nil
}

func sumMap(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysF(m map[string][]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func mean(d []float64) float64 {
	var s float64
	for _, v := range d {
		s += v
	}
	return s / float64(len(d))
}

func p95(d []float64) float64 {
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	i := int(0.95*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func maxOf(d []float64) float64 {
	m := d[0]
	for _, v := range d[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
