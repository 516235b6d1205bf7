package store

import (
	"runtime"
	"sync/atomic"
	"testing"

	"ssync/internal/workload"
	"ssync/internal/xrand"
)

// BenchmarkEngines pits the three shard engines against each other on
// the in-process path (no wire): a zipfian-free 95:5 get/put mix over a
// preloaded key space, one handle per benchmark goroutine. CI runs this
// at -benchtime=1x so the engine layer's hot path can't bit-rot; run it
// for real with `go test -bench Engines -benchtime 2s ./internal/store`.
func BenchmarkEngines(b *testing.B) {
	const nKeys = 4096
	for _, eng := range Engines {
		eng := eng
		b.Run(string(eng), func(b *testing.B) {
			s := New(Options{Shards: 8, Engine: eng, MaxThreads: 64})
			defer s.Close()
			pre := s.NewHandle(0)
			val := make([]byte, 64)
			for k := uint64(0); k < nKeys; k++ {
				pre.Put(workload.Key(k), val)
			}
			var seed atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				h := s.NewHandle(0)
				rng := xrand.New(seed.Add(1) * 0x9e3779b97f4a7c15)
				for pb.Next() {
					k := workload.Key(rng.Uint64() % nKeys)
					if rng.Uint64()%100 < 95 {
						h.Get(k)
					} else {
						h.Put(k, val)
					}
				}
			})
		})
	}
}

// BenchmarkGroupPath is the benchmark's engine-hot-rw workload without
// the benchmark harness: 64 keys drawn zipfian (θ = 0.99) from a
// preloaded, locked 4-shard store, 50:50 get:put with one put in eight a
// delete, in groups of 16. "issue" runs each group through
// Driver{LocalConn}.Issue and Wait, one shard visit per touched shard;
// "handle" runs the same ops one at a time on a Handle, one visit each,
// as the baseline. Each goroutine draws its op stream before the timer
// starts, so the generator is not measured, and an iteration is one
// group (ns/subop is per op). Run it with -cpu 1,2: at two goroutines
// the hot keys' shard locks are contended, and how long a group holds
// its lock is then the throughput.
func BenchmarkGroupPath(b *testing.B) {
	const keys, group, groups = 64, 16, 256
	val := make([]byte, 64)
	zipf := workload.NewZipfian(keys, 0.99)
	draw := func(seed uint64) [][]workload.Op {
		rng := xrand.New(seed)
		stream := make([][]workload.Op, groups)
		for g := range stream {
			ops := make([]workload.Op, group)
			for i := range ops {
				key := workload.Key(zipf.Next(rng))
				switch {
				case rng.Uint64n(100) < 50:
					ops[i] = workload.Op{Kind: workload.KindGet, Key: key}
				case rng.Uint64n(8) == 0:
					ops[i] = workload.Op{Kind: workload.KindDelete, Key: key}
				default:
					ops[i] = workload.Op{Kind: workload.KindPut, Key: key, Value: val}
				}
			}
			stream[g] = ops
		}
		return stream
	}
	run := func(b *testing.B, body func(s *Store, stream [][]workload.Op, pb *testing.PB)) {
		s := New(Options{Shards: 4})
		pre := s.NewHandle(0)
		for k := uint64(0); k < keys; k++ {
			pre.Put(workload.Key(k), val)
		}
		// RunParallel starts GOMAXPROCS goroutines: one stream each.
		streams := make([][][]workload.Op, runtime.GOMAXPROCS(0))
		for i := range streams {
			streams[i] = draw(uint64(i+1) * 0x9e3779b97f4a7c15)
		}
		var next atomic.Int32
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			body(s, streams[int(next.Add(1)-1)%len(streams)], pb)
		})
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*group), "ns/subop")
	}
	b.Run("issue", func(b *testing.B) {
		run(b, func(s *Store, stream [][]workload.Op, pb *testing.PB) {
			d := Driver{C: s.NewLocalConn(0)}
			for g := 0; pb.Next(); g++ {
				if _, err := d.Issue(stream[g%groups]).Wait(); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("handle", func(b *testing.B) {
		run(b, func(s *Store, stream [][]workload.Op, pb *testing.PB) {
			h := s.NewHandle(0)
			var dst []byte
			for g := 0; pb.Next(); g++ {
				for _, op := range stream[g%groups] {
					switch op.Kind {
					case workload.KindGet:
						dst, _ = h.GetAppend(op.Key, dst[:0])
					case workload.KindPut:
						h.Put(op.Key, op.Value)
					default:
						h.Delete(op.Key)
					}
				}
			}
		})
	})
}
