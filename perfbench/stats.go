package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// timing keeps every sample of one latency distribution for the whole
// measured phase, so its quantiles cover the run from start to end rather
// than a trailing window. Runs record at most a few million samples, so
// exact storage is cheaper than a bucketed estimate and needs no error
// analysis.
type timing struct {
	ns     []int64
	sorted bool
}

func (t *timing) add(d time.Duration) {
	t.ns = append(t.ns, int64(d))
	t.sorted = false
}

func (t *timing) merge(o *timing) {
	t.ns = append(t.ns, o.ns...)
	t.sorted = false
}

func (t *timing) count() int { return len(t.ns) }

// quantile returns the nearest-rank q-quantile: the sample at ascending
// position ceil(q·n)−1, so every reported value is one that was observed.
// An empty timing reports 0.
func (t *timing) quantile(q float64) time.Duration {
	n := len(t.ns)
	if n == 0 {
		return 0
	}
	if !t.sorted {
		sort.Slice(t.ns, func(i, j int) bool { return t.ns[i] < t.ns[j] })
		t.sorted = true
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return time.Duration(t.ns[idx])
}

func (t *timing) max() time.Duration { return t.quantile(1) }

// tailPercentiles is the ladder topPercentile climbs.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// topPercentile returns the highest percentile of the ladder that still
// has at least ten samples above it, so a reported tail is never one or
// two outliers; ok is false when even the median has fewer than ten.
func topPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if float64(n)*(100-c)/100 >= 10 {
			p, ok = c, true
		}
	}
	return p, ok
}

// describe renders a timing as "n=…, p50=…, p99.9=…": the sample count, the
// median and the highest percentile backed by at least ten samples.
func (t *timing) describe() string {
	n := t.count()
	if n == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("n=%d p50=%v", n, t.quantile(0.5))
	if p, ok := topPercentile(n); ok && p > 50 {
		s += fmt.Sprintf(" p%g=%v", p, t.quantile(p/100))
	}
	return s + fmt.Sprintf(" max=%v", t.max())
}

// interval is a half-open [start, end) span of nanoseconds.
type interval struct{ start, end int64 }

// unionLen returns the total length covered by at least one interval.
// Overlapping intervals — parallel children of one span — count once.
func unionLen(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := make([]interval, len(ivs))
	copy(s, ivs)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// median returns the median of xs, the mean of the middle two for an even
// count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = sorted(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
