package stats

import (
	"math"
	"testing"
)

func TestMeanAndStddev(t *testing.T) {
	var o Online
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if o.N() != 8 {
		t.Fatalf("N = %d", o.N())
	}
	if math.Abs(o.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", o.Mean())
	}
	// Sample (unbiased) stddev of this classic set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(o.Stddev()-want) > 1e-12 {
		t.Errorf("Stddev = %v, want %v", o.Stddev(), want)
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", o.Min(), o.Max())
	}
}

func TestEmptyAndSingle(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Stddev() != 0 || o.RelStddev() != 0 {
		t.Error("empty accumulator must report zeros")
	}
	o.Add(42)
	if o.Mean() != 42 || o.Variance() != 0 {
		t.Error("single sample: mean 42, variance 0")
	}
	if o.Min() != 42 || o.Max() != 42 {
		t.Error("single sample min/max")
	}
}

func TestRelStddev(t *testing.T) {
	var o Online
	o.Add(99)
	o.Add(101)
	if r := o.RelStddev(); math.Abs(r-math.Sqrt2/100) > 1e-9 {
		t.Errorf("RelStddev = %v", r)
	}
}
