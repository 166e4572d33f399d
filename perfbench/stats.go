package main

import (
	"math"
	"sort"
)

// quantileSorted returns the q-quantile of sorted values by linear
// interpolation between closest ranks (0 for no values).
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median returns the median of values without reordering them.
func median(values []float64) float64 {
	s := sortedCopy(values)
	return quantileSorted(s, 0.5)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// tail returns the highest percentile, up to the 99th, that has at
// least tailBeyond samples beyond it, and that percentile. With too few
// samples for even the median it returns the maximum.
func tail(values []float64) (value, percentile float64) {
	s := sortedCopy(values)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	i := min(n-1-tailBeyond, int(math.Ceil(0.99*float64(n-1))))
	if i < n/2 {
		return s[n-1], 100
	}
	return s[i], 100 * float64(i) / float64(n-1)
}

// slicedTail cuts values, in the order they were measured, into parts
// consecutive slices of equal length and returns the median of each
// slice's q-quantile. A neighbour that takes the host's CPU for a few
// seconds slows one or two slices; a plain tail over the whole run would
// report that episode, this one reports the tail the program shows
// whenever it runs undisturbed. With fewer values than parts it is the
// q-quantile of all of them.
func slicedTail(values []float64, parts int, q float64) float64 {
	n := len(values) / parts
	if n == 0 {
		return quantileSorted(sortedCopy(values), q)
	}
	tails := make([]float64, parts)
	for i := range tails {
		tails[i] = quantileSorted(sortedCopy(values[i*n:(i+1)*n]), q)
	}
	return median(tails)
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method), so spreads printed here match the acceptance
// rule's.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
