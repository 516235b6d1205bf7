package main

import "math/bits"

// histogram is a fixed log-bucketed latency histogram: every power of
// two is split into 64 equal sub-buckets, so a bucket is at most 1/64 of
// its lower edge wide and the midpoint a quantile reports is within 0.8 %
// of any sample in it. Recording is a shift, a mask and an increment —
// no allocation, no floating point — so it can sit inside the measured
// loop. One histogram belongs to one goroutine; merge folds per-client
// histograms together once the clients have parked.
type histogram struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// 2^42 ns is over an hour; longer samples clamp into the last bucket.
	histBuckets = (42 - histSubBits + 1) * histSub
)

// bucketOf maps a value to its bucket. Values below 64 get one bucket
// each (exact); above that the top histSubBits bits after the leading one
// select the sub-bucket.
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - histSubBits
	idx := (shift+1)*histSub + int(v>>uint(shift))&(histSub-1)
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketMid is the value a bucket reports: its midpoint.
func bucketMid(idx int) float64 {
	if idx < histSub {
		return float64(idx)
	}
	shift := uint(idx/histSub - 1)
	lo := uint64(histSub+idx%histSub) << shift
	return float64(lo) + float64(uint64(1)<<shift)/2
}

func (h *histogram) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(uint64(v))]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *histogram) reset() { *h = histogram{} }

// quantile returns the q-quantile (0 < q <= 1) by the nearest-rank rule:
// the smallest bucket whose cumulative count reaches ceil(q*n).
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}
