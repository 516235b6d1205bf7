package kvs

import (
	"sync"
	"time"

	"ssync/internal/workload"
	"ssync/internal/xrand"
)

// Workload is a memslap-style load definition (the paper drives Memcached
// with libmemcached's memslap: 500 client threads, get-only and set-only
// runs).
type Workload struct {
	// Clients is the number of concurrent client goroutines.
	Clients int
	// SetPercent is the percentage of sets (0 = get-only, 100 = set-only).
	SetPercent int
	// Keys is the key-space size.
	Keys int
	// Dist draws key indices; nil means uniform over Keys. The
	// distributions come from internal/workload, the suite's one
	// definition of key skew.
	Dist workload.Dist
	// ValueSize is the value payload size in bytes.
	ValueSize int
	// OpsPerClient is the number of operations each client performs.
	OpsPerClient int
}

// DefaultWorkload mirrors the paper's memslap defaults in spirit.
func DefaultWorkload(setOnly bool) Workload {
	w := Workload{Clients: 8, Keys: 10000, ValueSize: 64, OpsPerClient: 5000}
	if setOnly {
		w.SetPercent = 100
	}
	return w
}

// Result summarises a load run.
type Result struct {
	Ops      uint64
	Duration time.Duration
	Hits     uint64
	Misses   uint64
}

// Kops returns throughput in thousands of operations per second.
func (r Result) Kops() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds() / 1e3
}

// Run drives the store with the workload and returns the aggregate result.
func Run(s *Store, w Workload) Result {
	if w.Clients <= 0 || w.OpsPerClient <= 0 || w.Keys <= 0 {
		panic("kvs: workload needs positive clients, ops and keys")
	}
	dist := w.Dist
	if dist == nil {
		dist = workload.NewUniform(uint64(w.Keys))
	}
	value := make([]byte, w.ValueSize)
	for i := range value {
		value[i] = byte(i)
	}
	var wg sync.WaitGroup
	hits := make([]uint64, w.Clients)
	misses := make([]uint64, w.Clients)
	start := time.Now()
	for c := 0; c < w.Clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := s.NewHandle(c % 2)
			rng := xrand.New(uint64(c)*6364136223846793005 + 1442695040888963407)
			for i := 0; i < w.OpsPerClient; i++ {
				key := workload.Key(dist.Next(rng))
				if int(rng.Uint64()%100) < w.SetPercent {
					h.Set(key, value, 0)
				} else if _, ok := h.Get(key); ok {
					hits[c]++
				} else {
					misses[c]++
				}
			}
		}()
	}
	wg.Wait()
	res := Result{Ops: uint64(w.Clients * w.OpsPerClient), Duration: time.Since(start)}
	for c := 0; c < w.Clients; c++ {
		res.Hits += hits[c]
		res.Misses += misses[c]
	}
	return res
}
