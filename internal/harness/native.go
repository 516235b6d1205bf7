package harness

import (
	"sync"
	"time"

	"ssync/internal/kvs"
	"ssync/internal/lockfree"
	"ssync/internal/locks"
	"ssync/internal/mp"
	"ssync/internal/ssht"
	"ssync/internal/tm"
	"ssync/internal/xrand"
)

// This file registers the native half of the suite: the same workloads
// driven with real goroutines on the host libraries (internal/locks, mp,
// ssht, tm, kvs, lockfree). Values are wall-clock Mops/s and therefore
// host-dependent; the Config deadline scales the operation counts so
// tests stay fast.

// nativeAlgs is the lock subset the native experiments sweep — one simple
// spin lock, the ticket lock, one queue lock and the pthread-style mutex.
var nativeAlgs = []locks.Algorithm{locks.TAS, locks.TICKET, locks.MCS, locks.MUTEX}

// nativeOps derives a per-goroutine operation count from the shard
// config's simulated-cycles deadline.
func nativeOps(cfg Config) int {
	ops := int(cfg.Deadline / 20)
	if ops < 500 {
		ops = 500
	}
	if ops > 200_000 {
		ops = 200_000
	}
	return ops
}

// mopsSince converts an op count and start time to Mops/s.
func mopsSince(ops int, start time.Time) float64 {
	el := time.Since(start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(ops) / el / 1e6
}

func init() {
	Register(Def{
		ID:  "native/locks",
		Doc: "host: goroutines incrementing one counter under each lock algorithm, Mops/s",
		On:  []string{Native},
		Runner: func(s Shard) ([]Sample, error) {
			ops := nativeOps(s.Config)
			var out []Sample
			for _, alg := range nativeAlgs {
				l := locks.New(alg, locks.Options{MaxThreads: s.Threads + 1})
				var counter uint64
				start := time.Now()
				var wg sync.WaitGroup
				for g := 0; g < s.Threads; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						tok := l.NewToken(0)
						for i := 0; i < ops; i++ {
							l.Acquire(tok)
							counter++
							l.Release(tok)
						}
					}()
				}
				wg.Wait()
				out = append(out, Sample{Metric: string(alg), Value: mopsSince(ops*s.Threads, start)})
				_ = counter
			}
			return out, nil
		},
	})

	Register(Def{
		ID:  "native/lockfree",
		Doc: "host: Michael–Scott queue and Treiber stack vs a lock-based queue, Mops/s",
		On:  []string{Native},
		Runner: func(s Shard) ([]Sample, error) {
			ops := nativeOps(s.Config)
			run := func(enq func(uint64), deq func() bool) float64 {
				start := time.Now()
				var wg sync.WaitGroup
				for g := 0; g < s.Threads; g++ {
					g := g
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < ops; i++ {
							enq(uint64(g)<<32 | uint64(i))
							deq()
						}
					}()
				}
				wg.Wait()
				return mopsSince(2*ops*s.Threads, start)
			}
			q := lockfree.NewQueue[uint64]()
			st := lockfree.NewStack[uint64]()
			lq := lockfree.NewLockedQueue[uint64](locks.Locker{L: locks.New(locks.TICKET, locks.Options{})})
			return []Sample{
				{Metric: "ms-queue", Value: run(q.Enqueue, func() bool { _, ok := q.Dequeue(); return ok })},
				{Metric: "treiber-stack", Value: run(st.Push, func() bool { _, ok := st.Pop(); return ok })},
				{Metric: "locked-queue", Value: run(lq.Enqueue, func() bool { _, ok := lq.Dequeue(); return ok })},
			}, nil
		},
	})

	Register(Def{
		ID:  "native/ssht",
		Doc: "host: ssht hash table, 80/10/10 get/put/remove mix per lock algorithm plus the served (message-passing) mode, Mops/s",
		On:  []string{Native},
		Runner: func(s Shard) ([]Sample, error) {
			ops := nativeOps(s.Config)
			const keys = 4096
			var out []Sample
			for _, alg := range nativeAlgs {
				tbl := ssht.New(ssht.Options{Buckets: 64, Lock: alg, MaxThreads: s.Threads + 1})
				start := time.Now()
				var wg sync.WaitGroup
				for g := 0; g < s.Threads; g++ {
					g := g
					wg.Add(1)
					go func() {
						defer wg.Done()
						h := tbl.NewHandle(0)
						rng := xrand.New(uint64(g)*2654435761 + 99)
						for i := 0; i < ops; i++ {
							r := rng.Uint64()
							k := r % keys
							switch {
							case r>>32%10 < 8:
								h.Get(k)
							case r>>32%10 == 8:
								h.Put(k, ssht.Value{r})
							default:
								h.Remove(k)
							}
						}
					}()
				}
				wg.Wait()
				out = append(out, Sample{Metric: string(alg), Value: mopsSince(ops*s.Threads, start)})
			}

			// Served mode: one server per three clients, as in the paper.
			nServers := s.Threads / 4
			if nServers < 1 {
				nServers = 1
			}
			nClients := s.Threads - nServers
			if nClients < 1 {
				nClients = 1
			}
			srv := ssht.NewServed(64, nServers, nClients)
			clients := make([]*ssht.Client, nClients)
			for g := range clients {
				clients[g] = srv.NewClient(g)
			}
			start := time.Now()
			var wg sync.WaitGroup
			for g := 0; g < nClients; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := clients[g]
					rng := xrand.New(uint64(g)*48611 + 3)
					for i := 0; i < ops; i++ {
						r := rng.Uint64()
						k := r % keys
						switch {
						case r>>32%10 < 8:
							c.Get(k)
						case r>>32%10 == 8:
							c.Put(k, ssht.Value{r})
						default:
							c.Remove(k)
						}
					}
				}()
			}
			wg.Wait()
			clients[0].Close()
			out = append(out, Sample{Metric: "MP", Value: mopsSince(ops*nClients, start)})
			return out, nil
		},
	})

	Register(Def{
		ID:  "native/kvs",
		Doc: "host: memcached-style store, set-only memslap workload per lock algorithm, Kops/s",
		On:  []string{Native},
		Runner: func(s Shard) ([]Sample, error) {
			ops := nativeOps(s.Config)
			var out []Sample
			for _, alg := range nativeAlgs {
				store := kvs.New(kvs.Options{Lock: alg, Shards: 64})
				w := kvs.DefaultWorkload(true)
				w.Clients = s.Threads
				w.OpsPerClient = ops
				res := kvs.Run(store, w)
				out = append(out, Sample{Metric: string(alg), Value: res.Kops()})
			}
			return out, nil
		},
	})

	Register(Def{
		ID:  "native/tm",
		Doc: "host: lock-based TM, bank-transfer workload — commit throughput (Mops/s) and abort rate (%)",
		On:  []string{Native},
		Runner: func(s Shard) ([]Sample, error) {
			ops := nativeOps(s.Config)
			const accounts = 64
			runner := tm.NewLockBased(accounts)
			start := time.Now()
			var wg sync.WaitGroup
			for g := 0; g < s.Threads; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := xrand.New(uint64(g) + 1)
					for i := 0; i < ops; i++ {
						from, to := rng.Intn(accounts), rng.Intn(accounts)
						_ = runner.Run(func(tx tm.Tx) error {
							f := tx.Read(from)
							if f == 0 {
								tx.Write(from, 100)
								return nil
							}
							tx.Write(from, f-1)
							tx.Write(to, tx.Read(to)+1)
							return nil
						})
					}
				}()
			}
			wg.Wait()
			mops := mopsSince(ops*s.Threads, start)
			commits, aborts := runner.Stats()
			abortPct := 0.0
			if commits+aborts > 0 {
				abortPct = 100 * float64(aborts) / float64(commits+aborts)
			}
			return []Sample{{Metric: "Mops/s", Value: mops}, {Metric: "abort %", Value: abortPct}}, nil
		},
	})

	Register(Def{
		ID:   "native/mp",
		Doc:  "host: libssmp-style cache-line channels, ping-pong pairs, Mops/s (messages)",
		On:   []string{Native},
		Grid: func(string) []int { return []int{2, 4, 8} }, // pairs: the native ladder without 1
		Runner: func(s Shard) ([]Sample, error) {
			if s.Threads < 2 {
				return nil, nil // a ping-pong pair needs two goroutines
			}
			ops := nativeOps(s.Config)
			pairs := s.Threads / 2
			nw := mp.NewNetwork(2 * pairs)
			start := time.Now()
			var wg sync.WaitGroup
			for p := 0; p < pairs; p++ {
				client, server := 2*p, 2*p+1
				wg.Add(2)
				go func() {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						nw.Call(client, server, mp.Msg{W: [7]uint64{uint64(i)}})
					}
				}()
				go func() {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						msg := nw.Recv(server, client)
						nw.Send(server, client, msg)
					}
				}()
			}
			wg.Wait()
			return []Sample{{Metric: "round-trip", Value: mopsSince(ops*pairs, start)}}, nil
		},
	})
}
