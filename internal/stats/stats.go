// Package stats provides small online statistics helpers used by the
// benchmark harnesses to summarise latency samples the way the paper does
// (mean of repetitions, standard deviation as a sanity bound).
package stats

import "math"

// Online accumulates mean and variance using Welford's algorithm.
type Online struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds a sample into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of samples.
func (o *Online) N() uint64 { return o.n }

// Mean returns the sample mean (0 with no samples).
func (o *Online) Mean() float64 { return o.mean }

// Min returns the smallest sample (0 with no samples).
func (o *Online) Min() float64 { return o.min }

// Max returns the largest sample (0 with no samples).
func (o *Online) Max() float64 { return o.max }

// Variance returns the unbiased sample variance (0 with <2 samples).
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Stddev returns the sample standard deviation.
func (o *Online) Stddev() float64 { return math.Sqrt(o.Variance()) }

// RelStddev returns stddev/mean, the paper's "<3% standard deviation"
// quality criterion; it returns 0 when the mean is 0.
func (o *Online) RelStddev() float64 {
	if o.mean == 0 {
		return 0
	}
	return o.Stddev() / math.Abs(o.mean)
}

// Round returns x rounded to the given number of decimal places.
// Emitted statistics are rounded to a stable precision so saved result
// files diff cleanly instead of churning in the 15th significant digit
// on every regeneration.
func Round(x float64, places int) float64 {
	p := math.Pow(10, float64(places))
	r := math.Round(x*p) / p
	if r == 0 {
		return 0 // normalise -0
	}
	return r
}

// Summary is a frozen snapshot of an accumulator, the shape experiment
// runners report per metric.
type Summary struct {
	N      uint64  `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Summary freezes the accumulator's current state.
func (o *Online) Summary() Summary {
	return Summary{N: o.n, Mean: o.Mean(), Stddev: o.Stddev(), Min: o.Min(), Max: o.Max()}
}
