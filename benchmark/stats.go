package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between order statistics. vs need not be sorted; it is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// geomean averages ratios; non-positive values are skipped so a decoder
// a slice happened not to run does not zero the whole figure.
func geomean(vs []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// quartiles returns Q1, median and Q3 by the method of Python's
// statistics.quantiles(values, n=4) (exclusive), the one the acceptance
// check uses, so spreads computed here match the driver's.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return vs[0], vs[0], vs[0]
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i in 1..3
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
