package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

func TestScheduleIsDeterministicPermutation(t *testing.T) {
	distinct := map[string]bool{}
	for seed := uint64(1); seed <= 20; seed++ {
		a, b := schedule(seed, 10), schedule(seed, 10)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d gave %v then %v", seed, a, b)
		}
		sorted := append([]int(nil), a...)
		sort.Ints(sorted)
		for i, v := range sorted {
			if v != i {
				t.Fatalf("seed %d: %v is not a permutation of 0..9", seed, a)
			}
		}
		key, _ := json.Marshal(a)
		distinct[string(key)] = true
	}
	if len(distinct) < 15 {
		t.Errorf("20 seeds gave only %d distinct orders", len(distinct))
	}
	if got := []int{startOffset(0, 2, 9), startOffset(1, 2, 9), startOffset(0, 1, 4)}; !reflect.DeepEqual(got, []int{0, 4, 0}) {
		t.Errorf("start offsets %v", got)
	}
}

func TestWorkloadsResolve(t *testing.T) {
	for _, w := range workloads {
		templates, err := w.templates()
		if err != nil {
			t.Fatal(err)
		}
		counts, err := pinnedCounts(w.scale)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		inserts := 0
		for _, tpl := range templates {
			if seen[tpl.name] {
				t.Errorf("%s: template %s twice", w.name, tpl.name)
			}
			seen[tpl.name] = true
			if tpl.isInsert() {
				inserts++
				continue
			}
			if _, ok := counts[tpl.query]; !ok {
				t.Errorf("%s: no pinned count for %s at %d", w.name, tpl.query, w.scale)
			}
			if _, ok := acceptHeader[tpl.format]; !ok {
				t.Errorf("%s: template %s has unknown format %q", w.name, tpl.name, tpl.format)
			}
		}
		if (inserts == 1) != w.updates {
			t.Errorf("%s: %d insert templates, updates=%v", w.name, inserts, w.updates)
		}
		if w.clients > 2 {
			t.Errorf("%s: %d clients; the protocol promises at most nproc (2) connections", w.name, w.clients)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the program together: the
// same workloads, the same metrics with the same units, and the default
// window.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricSpec struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default window is %d", spec.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, the program has %v", names, want)
	}
	check := func(kind string, got []metricSpec, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(defs))
			return
		}
		for i, m := range got {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s[%d]: %s (%s) in BENCHMARK.json, %s (%s) in the program", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics, true)
	check("per_layer", spec.PerLayer, perLayerMetrics, false)
}
