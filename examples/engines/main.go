// Engines: build the same sharded key-value store on each shard-engine
// paradigm — lock-guarded, message-passing actors, optimistic reads —
// and print a tiny throughput comparison. This is the paper's
// locks-vs-atomics-vs-message-passing question asked of a whole store
// instead of a microbenchmark.
//
//	go run ./examples/engines
package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ssync/internal/store"
	"ssync/internal/workload"
	"ssync/internal/xrand"
)

const (
	goroutines = 8
	nKeys      = 4096
	getPct     = 95
)

func main() { run(os.Stdout, false) }

// run prints the comparison to w; small runs a few hundred ops per
// goroutine instead of 40000.
func run(w io.Writer, small bool) {
	opsPerG := 40000
	if small {
		opsPerG = 500
	}
	fmt.Fprintf(w, "shard engines — %d CPUs, %d goroutines, %d%% gets over %d keys\n\n",
		runtime.NumCPU(), goroutines, getPct, nKeys)
	fmt.Fprintf(w, "%-12s %12s %12s\n", "engine", "total ops", "Kops/s")
	for _, eng := range store.Engines {
		ops, elapsed := drive(eng, opsPerG)
		fmt.Fprintf(w, "%-12s %12d %12.1f\n", eng,
			ops, float64(ops)/elapsed.Seconds()/1e3)
	}
	fmt.Fprintln(w, "\nSame API, same data, three synchronization paradigms. Read-heavy")
	fmt.Fprintln(w, "mixes favor the optimistic engine (gets never lock); workloads that")
	fmt.Fprintln(w, "batch well amortize the actor engine's messages; the locked engine")
	fmt.Fprintln(w, "is the baseline every lock algorithm in internal/locks can tune.")
	fmt.Fprintln(w, "Run `ssync store -engine all` for the wire-protocol comparison.")
}

// drive runs opsPerG mixed ops per goroutine against a fresh store on
// one engine.
func drive(eng store.Engine, opsPerG int) (int64, time.Duration) {
	s := store.New(store.Options{Shards: 8, Engine: eng, MaxThreads: goroutines + 2})
	defer s.Close()
	pre := s.NewHandle(0)
	val := make([]byte, 64)
	for k := uint64(0); k < nKeys; k++ {
		pre.Put(workload.Key(k), val)
	}
	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := s.NewHandle(g % 2)
			rng := xrand.New(uint64(g)*0x9e3779b97f4a7c15 + 1)
			for i := 0; i < opsPerG; i++ {
				k := workload.Key(rng.Uint64() % nKeys)
				if rng.Uint64()%100 < getPct {
					h.Get(k)
				} else {
					h.Put(k, val)
				}
			}
			total.Add(int64(opsPerG))
		}()
	}
	wg.Wait()
	return total.Load(), time.Since(start)
}
