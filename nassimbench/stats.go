package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle of xs, averaging the two middle values of an
// even-sized sample. xs is not modified; an empty sample yields NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0 < p <= 100) of xs by nearest
// rank, so it is always an observed value. xs is not modified; an empty
// sample yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(k, 1), len(s))-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// minTail is how many samples must lie beyond a tail percentile before it
// is reported: fewer than that and the figure is one or two outliers, not
// a tail.
const minTail = 10

// tailPercentile reports the p-th percentile (0 < p < 100) of xs together
// with how many samples lie strictly beyond it, or ok=false when fewer than
// minTail do.
func tailPercentile(xs []float64, p float64) (value float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	value = percentile(xs, p)
	for _, x := range xs {
		if x > value {
			beyond++
		}
	}
	return value, beyond, beyond >= minTail
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's figures by name.
type metricSet map[string]metric

func (s metricSet) set(name string, value float64, unit string) {
	s[name] = metric{Value: value, Unit: unit}
}

// only returns the named subset, failing if one is missing or not a
// finite number, so a result line never silently drops a figure.
func (s metricSet) only(names []string) (map[string]metric, error) {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		v, ok := s[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", n, v.Value)
		}
		out[n] = v
	}
	return out, nil
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
