package store

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ssync/internal/xrand"
)

// Cross-engine behavioral tests: the three shard engines (locked, actor,
// optimistic) must be indistinguishable through the store API. Run with
// -race; CI's engine-matrix leg does.

// TestEngineConcurrentMixed smoke-tests concurrent mixed traffic under
// every engine, verifying invariant bounds on the final population.
func TestEngineConcurrentMixed(t *testing.T) {
	const nG, keys = 4, 64
	ops := 600
	if testing.Short() {
		ops = 200
	}
	for _, eng := range Engines {
		eng := eng
		t.Run(string(eng), func(t *testing.T) {
			t.Parallel()
			s := New(Options{Shards: 4, Buckets: 8, Engine: eng, MaxThreads: nG + 2, Nodes: 2})
			defer s.Close()
			var wg sync.WaitGroup
			for g := 0; g < nG; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					h := s.NewHandle(g % 2)
					rng := xrand.New(uint64(g)*7 + 1)
					for i := 0; i < ops; i++ {
						k := fmt.Sprintf("key-%d", rng.Uint64()%keys)
						switch rng.Uint64() % 3 {
						case 0:
							h.Put(k, []byte(k))
						case 1:
							if v, ok := h.Get(k); ok && !bytes.Equal(v, []byte(k)) {
								t.Errorf("%s: Get(%s) = %q", eng, k, v)
							}
						default:
							h.Delete(k)
						}
					}
				}()
			}
			wg.Wait()
			if n := s.NewHandle(0).Len(); n < 0 || n > keys {
				t.Fatalf("%s: Len = %d outside [0, %d]", eng, n, keys)
			}
		})
	}
}

// TestBatchResponsesByRequestIndex: ExecBatch's group loop visits the
// touched shards in shard order, not request order, so this pins down
// that every response still lands at its request's index, engine by
// engine (TestEngineBatchEquivalence only compares engines with each
// other).
func TestBatchResponsesByRequestIndex(t *testing.T) {
	const n = 40
	for _, eng := range Engines {
		s := New(Options{Shards: 8, Buckets: 4, Engine: eng})
		h := s.NewHandle(0)
		var reqs []Request
		inversions := 0
		for i := 0; i < n; i++ {
			key := "bk" + string(rune('a'+i%26)) + string(rune('a'+i/26))
			reqs = append(reqs, Request{Op: OpPut, Key: key, Value: []byte{byte(i)}})
			if i > 0 && s.shardOf(hashKey(key)) < s.shardOf(hashKey(reqs[i-1].Key)) {
				inversions++
			}
		}
		if inversions == 0 {
			t.Fatal("every request is on a shard at or above its predecessor's: shard order is request order and the test proves nothing")
		}
		for i := 0; i < n; i++ {
			reqs = append(reqs, Request{Op: OpGet, Key: reqs[i].Key})
		}
		resps := h.ExecBatch(reqs)
		for i := 0; i < n; i++ {
			if resps[i].Status != StatusOK || !resps[i].Created {
				t.Fatalf("%s: put %d: %+v", eng, i, resps[i])
			}
			got := resps[n+i]
			if got.Status != StatusOK || len(got.Value) != 1 || got.Value[0] != byte(i) {
				t.Fatalf("%s: get %d answered %+v, want value [%d]", eng, i, got, i)
			}
		}
		s.Close()
	}
}

// TestEngineBatchEquivalence drives the same deterministic batch
// sequence through every engine and requires byte-identical responses —
// the pluggable layer must not change what the batch path computes.
func TestEngineBatchEquivalence(t *testing.T) {
	build := func(eng Engine) [][]Response {
		s := New(Options{Shards: 4, Buckets: 8, Engine: eng})
		defer s.Close()
		h := s.NewHandle(0)
		rng := xrand.New(99)
		var all [][]Response
		for b := 0; b < 30; b++ {
			var reqs []Request
			for i := 0; i < 16; i++ {
				k := fmt.Sprintf("k%d", rng.Uint64()%40)
				switch rng.Uint64() % 4 {
				case 0, 1:
					reqs = append(reqs, Request{Op: OpGet, Key: k})
				case 2:
					reqs = append(reqs, Request{Op: OpPut, Key: k, Value: []byte(k)})
				default:
					reqs = append(reqs, Request{Op: OpDelete, Key: k})
				}
			}
			reqs = append(reqs, Request{Op: OpScan, Key: "k1", Limit: 8})
			all = append(all, h.ExecBatch(reqs))
		}
		return all
	}
	want := build(EngineLocked)
	for _, eng := range []Engine{EngineActor, EngineOptimistic} {
		got := build(eng)
		for b := range want {
			for i := range want[b] {
				w, g := want[b][i], got[b][i]
				if w.Status != g.Status || w.Created != g.Created ||
					!bytes.Equal(w.Value, g.Value) || len(w.Entries) != len(g.Entries) {
					t.Fatalf("%s: batch %d resp %d = %+v, locked engine got %+v", eng, b, i, g, w)
				}
				for e := range w.Entries {
					if w.Entries[e].Key != g.Entries[e].Key ||
						!bytes.Equal(w.Entries[e].Value, g.Entries[e].Value) {
						t.Fatalf("%s: batch %d resp %d entry %d = %q/%q, locked engine got %q/%q",
							eng, b, i, e, g.Entries[e].Key, g.Entries[e].Value,
							w.Entries[e].Key, w.Entries[e].Value)
					}
				}
			}
		}
	}
}

// TestShardStatsDuringTraffic is the counters regression test: a
// monitor hammers ShardStats while clients run mixed traffic, under
// every engine. With -race this pins the satellite requirement that
// snapshots are race-free (lock-held, mailbox-owned, or atomic); the
// test itself asserts the cross-engine contract that per-shard totals
// are monotone across snapshots and account for every completed op.
func TestShardStatsDuringTraffic(t *testing.T) {
	const nG = 4
	ops := 800
	if testing.Short() {
		ops = 250
	}
	for _, eng := range Engines {
		eng := eng
		t.Run(string(eng), func(t *testing.T) {
			t.Parallel()
			s := New(Options{Shards: 4, Buckets: 8, Engine: eng, MaxThreads: nG + 2})
			defer s.Close()
			var opsDone [nG]atomic.Uint64
			var stop atomic.Bool
			var traffic sync.WaitGroup
			for g := 0; g < nG; g++ {
				g := g
				traffic.Add(1)
				go func() {
					defer traffic.Done()
					h := s.NewHandle(0)
					rng := xrand.New(uint64(g)*13 + 5)
					for i := 0; i < ops; i++ {
						k := fmt.Sprintf("key-%d", rng.Uint64()%64)
						switch rng.Uint64() % 4 {
						case 0:
							h.Put(k, []byte(k))
						case 1, 2:
							h.Get(k)
						default:
							h.Delete(k)
						}
						opsDone[g].Add(1)
					}
				}()
			}
			// The monitor races the traffic on purpose.
			monDone := make(chan struct{})
			go func() {
				defer close(monDone)
				mon := s.NewHandle(0)
				prev := make([]uint64, s.Shards())
				for !stop.Load() {
					var before uint64
					for g := range opsDone {
						before += opsDone[g].Load()
					}
					stats := mon.ShardStats()
					var total uint64
					for i, c := range stats {
						cur := c.Total()
						if cur < prev[i] {
							t.Errorf("%s: shard %d counter went backwards: %d -> %d", eng, i, prev[i], cur)
							return
						}
						prev[i] = cur
						total += cur
					}
					// Every op completed before the snapshot began must
					// already be counted (ops count themselves before
					// returning to the client).
					if total < before {
						t.Errorf("%s: snapshot total %d < %d ops already completed", eng, total, before)
						return
					}
				}
			}()
			traffic.Wait()
			stop.Store(true)
			<-monDone

			// Quiesced: the final snapshot must account for exactly the
			// ops issued.
			stats := s.NewHandle(0).ShardStats()
			var total uint64
			for _, c := range stats {
				total += c.Total()
			}
			if total != uint64(nG*ops) {
				t.Fatalf("%s: final counter total = %d, want %d", eng, total, nG*ops)
			}
		})
	}
}
