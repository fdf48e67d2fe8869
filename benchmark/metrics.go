package main

import (
	"fmt"
	"math"
	"sort"
)

// samples is one metric's repeated measurements in one run. The
// reported value is their median; a count that repeats exactly has
// identical samples.
type samples struct {
	Unit string
	Vals []float64
}

// metricSet maps a metric name to its samples. Names and units are
// given where the value is measured; BENCHMARK.json declares the same
// names with their direction and bound, and the tests hold the two
// together.
type metricSet map[string]*samples

// add appends measurements of one metric. A second unit for the same
// name can only be a bug in this program.
func (m metricSet) add(name, unit string, vals ...float64) {
	s, ok := m[name]
	if !ok {
		s = &samples{Unit: unit}
		m[name] = s
	}
	if s.Unit != unit {
		panic(fmt.Sprintf("benchmark: metric %s emitted as %q and %q", name, s.Unit, unit))
	}
	s.Vals = append(s.Vals, vals...)
}

func (m metricSet) merge(other metricSet) {
	for name, s := range other {
		m.add(name, s.Unit, s.Vals...)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// summary is what the result file and the printed table carry.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func (s *samples) summarize() summary {
	q1, q2, q3 := quartiles(s.Vals)
	out := summary{Unit: s.Unit, Median: q2, Q1: q1, Q3: q3, Min: q2, Max: q2, N: len(s.Vals)}
	for _, v := range s.Vals {
		out.Min, out.Max = math.Min(out.Min, v), math.Max(out.Max, v)
	}
	return out
}

// spread is the distance between the quartiles as a share of the
// median, the driver's measure of run-to-run noise.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// quartiles follows Python's statistics.quantiles(vals, n=4), which is
// what the driver applies to its runs; a single value is its own
// quartiles.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0, 0
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	if n == 1 {
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return v[j-1] + (v[j]-v[j-1])*frac
	}
	return at(1), at(2), at(3)
}

func median(vals []float64) float64 {
	_, q2, _ := quartiles(vals)
	return q2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 1).
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	i := int(math.Ceil(p*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}
