package main

import (
	"math"
	"sort"
	"time"

	"distperm/pkg/obs"
)

// quantile is the nearest-rank q-quantile of xs (sorted in place); +Inf
// entries stand for failed operations, which miss every limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latenciesMS returns the samples' latencies from their due time in ms,
// +Inf for a failed one.
func latenciesMS(ss []*sample, kinds ...opKind) []float64 {
	var out []float64
	for _, s := range ss {
		match := false
		for _, k := range kinds {
			match = match || s.op.kind == k
		}
		if !match {
			continue
		}
		if s.ok {
			out = append(out, ms(s.latency()))
		} else {
			out = append(out, math.Inf(1))
		}
	}
	return out
}

// histDelta is the histogram of the observations between two snapshots.
func histDelta(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Edges: b.Edges, Buckets: make([]uint64, len(b.Buckets)),
		Count: b.Count - a.Count, Sum: b.Sum - a.Sum}
	for i := range b.Buckets {
		d.Buckets[i] = b.Buckets[i]
		if i < len(a.Buckets) {
			d.Buckets[i] -= a.Buckets[i]
		}
	}
	return d
}

// histQuantile reads the q-quantile from a histogram, interpolating
// linearly inside the bucket that holds it: the program's histograms step
// by 2×, too coarse to read a bucket edge as the value.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 || len(h.Edges) == 0 {
		return 0
	}
	rank := max(1, math.Ceil(q*float64(h.Count)))
	var cum float64
	for i, b := range h.Buckets {
		if cum+float64(b) < rank {
			cum += float64(b)
			continue
		}
		if i >= len(h.Edges) {
			return h.Edges[len(h.Edges)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Edges[i-1]
		}
		return lo + (h.Edges[i]-lo)*(rank-cum)/float64(b)
	}
	return h.Edges[len(h.Edges)-1]
}

// interval is a half-open time span in Unix nanoseconds.
type interval struct{ lo, hi int64 }

func (v interval) len() int64 { return max(0, v.hi-v.lo) }

// union merges overlapping intervals.
func union(vs []interval) []interval {
	sort.Slice(vs, func(i, j int) bool { return vs[i].lo < vs[j].lo })
	var out []interval
	for _, v := range vs {
		if n := len(out); n > 0 && v.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, v.hi)
			continue
		}
		out = append(out, v)
	}
	return out
}

// covered is how much of v the disjoint intervals us cover.
func covered(v interval, us []interval) int64 {
	var c int64
	for _, u := range us {
		c += interval{max(v.lo, u.lo), min(v.hi, u.hi)}.len()
	}
	return c
}

func total(us []interval) int64 {
	var t int64
	for _, u := range us {
		t += u.len()
	}
	return t
}

// quartiles are Python's statistics.quantiles(xs, n=4) (the exclusive
// method): the first quartile, the median and the third quartile.
func quartiles(xs []float64) [3]float64 {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	var q [3]float64
	ld := len(data)
	if ld == 1 {
		return [3]float64{data[0], data[0], data[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return q
}
