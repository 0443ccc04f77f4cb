package main

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

func TestP99NeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		ok   bool
		want float64
	}{
		{0, false, 0},
		{100, false, 99},     // 1 sample beyond
		{999, false, 990},    // 9 beyond
		{1000, true, 990},    // 10 beyond
		{20000, true, 19800}, // 200 beyond
	} {
		got, ok := p99(ramp(tc.n))
		beyond := 0
		for _, x := range ramp(tc.n) {
			if x > got {
				beyond++
			}
		}
		if ok != (beyond >= tailBeyond) {
			t.Errorf("n=%d: reported=%v with %d samples beyond the percentile", tc.n, ok, beyond)
		}
		if ok != tc.ok || got != tc.want {
			t.Errorf("n=%d: p99 = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestQuantileAndGeomean(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	sorted := sortedCopy(xs)
	if !sort.Float64sAreSorted(sorted) || reflect.DeepEqual(sorted, xs) {
		t.Fatalf("sortedCopy(%v) = %v", xs, sorted)
	}
	for q, want := range map[float64]float64{0: 1, 0.25: 1.75, 0.5: 2.5, 0.75: 3.25, 1: 4} {
		if got := quantile(sorted, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if got := geomean([]float64{1, 10, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean = %v, want 10", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}
