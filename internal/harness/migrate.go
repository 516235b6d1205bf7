package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ssync/internal/cluster"
	"ssync/internal/locks"
	"ssync/internal/store"
	"ssync/internal/workload"
	"ssync/internal/xrand"
)

// This file measures elastic membership: MigrateBench drives a cluster
// with live traffic, resizes it mid-run (grow, then optionally shrink),
// and reports what the resize cost the clients — the steady throughput
// before, the worst sampling interval during the migration window (the
// dip), and how long the cluster took to climb back to 90% of steady.
// The migrate/<n>x<engine> experiments and `ssync cluster -resize`
// share it.

// MigrateBenchConfig configures one live-resize measurement.
type MigrateBenchConfig struct {
	// Nodes is the starting member count. Default 2.
	Nodes int
	// Vnodes is the ring's virtual-point count per node.
	Vnodes int
	// Engine is the shard engine of every node's store.
	Engine store.Engine
	// Lock is the shard-lock algorithm. Default TICKET.
	Lock locks.Algorithm
	// Shards per node. Default 8.
	Shards int
	// Clients is the number of lock-step routed clients hammering the
	// cluster throughout. Default 4.
	Clients int
	// Keys is the key-space size. Default 4096.
	Keys uint64
	// Preload is the number of keys loaded before traffic starts.
	// Default half the key space.
	Preload int
	// ValueSize is the value payload in bytes. Default 64.
	ValueSize int
	// Steady is the pre-resize measurement window. Default 250ms.
	Steady time.Duration
	// Tail is the post-resize window (the recovery has to happen in
	// it). Default Steady.
	Tail time.Duration
	// Remove also removes an original member after the add — the full
	// grow-then-shrink cycle.
	Remove bool
}

func (c MigrateBenchConfig) withDefaults() MigrateBenchConfig {
	if c.Nodes < 1 {
		c.Nodes = 2
	}
	if c.Engine == "" {
		c.Engine = store.EngineLocked
	}
	if c.Lock == "" {
		c.Lock = locks.TICKET
	}
	if c.Shards < 1 {
		c.Shards = 8
	}
	if c.Clients < 1 {
		c.Clients = 4
	}
	if c.Keys == 0 {
		c.Keys = 4096
	}
	if c.Preload == 0 {
		c.Preload = int(c.Keys / 2)
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 64
	}
	if c.Steady <= 0 {
		c.Steady = 250 * time.Millisecond
	}
	if c.Tail <= 0 {
		c.Tail = c.Steady
	}
	return c
}

// MigrateBenchResult is what one live resize cost the clients.
type MigrateBenchResult struct {
	// SteadyKops is the pre-resize throughput.
	SteadyKops float64
	// DipKops is the slowest post-resize-start sampling interval.
	DipKops float64
	// DipPct is the share of steady throughput lost at that interval.
	DipPct float64
	// RecoveryMs is the time from resize start until an interval first
	// reaches 90% of steady again (the full window if it never does).
	RecoveryMs float64
	// AddMs / RemoveMs are the blocking durations of the membership
	// calls themselves (copy + commit, as seen by the operator).
	AddMs, RemoveMs float64
	// Moved is how many keys the grow step relocated onto the new node.
	Moved int
}

// MigrateBench runs one live-resize measurement.
func MigrateBench(cfg MigrateBenchConfig) (MigrateBenchResult, error) {
	cfg = cfg.withDefaults()
	var res MigrateBenchResult
	c := cluster.New(cluster.Options{
		Nodes:  cfg.Nodes,
		Vnodes: cfg.Vnodes,
		Store: store.Options{
			Shards: cfg.Shards,
			Engine: cfg.Engine,
			Lock:   cfg.Lock,
			// Headroom beyond the clients: mesh forwarding conns and the
			// migration driver's direct handles also touch the shards
			// (matters to ARRAY locks, which MaxThreads sizes).
			MaxThreads: cfg.Clients + 8,
		},
	})
	defer c.Close()

	if cfg.Preload > 0 {
		cl := c.Dial(0)
		err := workload.Preload(store.Driver{C: cl}, cfg.Preload, cfg.ValueSize)
		cl.Close()
		if err != nil {
			return res, fmt.Errorf("preload: %w", err)
		}
	}

	// Traffic: lock-step routed clients, 90:10 get:put — lock-step
	// because a per-op client is the most sensitive probe of the commit
	// pause (an async window would hide it).
	var ops atomic.Uint64
	stop := make(chan struct{})
	errs := make([]error, cfg.Clients)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := c.Dial(1)
			defer cl.Close()
			rng := xrand.New(uint64(i)*0x9E3779B97F4A7C15 + 7)
			value := make([]byte, cfg.ValueSize)
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := workload.Key(rng.Uint64n(cfg.Keys))
				var err error
				if rng.Uint64n(100) < 10 {
					_, err = cl.Put(key, value)
				} else {
					_, _, err = cl.Get(key)
				}
				if err != nil {
					errs[i] = err
					return
				}
				ops.Add(1)
			}
		}()
	}

	// Sampler: cumulative op counts on a fixed cadence, turned into
	// per-interval rates afterwards.
	const sampleEvery = 10 * time.Millisecond
	type tick struct {
		at time.Time
		n  uint64
	}
	var mu sync.Mutex
	var ticks []tick
	samplerStop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tk := time.NewTicker(sampleEvery)
		defer tk.Stop()
		for {
			select {
			case <-samplerStop:
				return
			case at := <-tk.C:
				n := ops.Load()
				mu.Lock()
				ticks = append(ticks, tick{at: at, n: n})
				mu.Unlock()
			}
		}
	}()

	finish := func() error {
		close(stop)
		wg.Wait()
		close(samplerStop)
		samplerWG.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Steady window.
	time.Sleep(50 * time.Millisecond) // warm-up, unmeasured
	steadyFrom, fromN := time.Now(), ops.Load()
	time.Sleep(cfg.Steady)
	steadySecs := time.Since(steadyFrom).Seconds()
	res.SteadyKops = float64(ops.Load()-fromN) / steadySecs / 1e3

	// The resize, under full load.
	oldRing := c.Ring()
	resizeStart := time.Now()
	_, err := c.AddNode()
	res.AddMs = float64(time.Since(resizeStart).Microseconds()) / 1e3
	if err != nil {
		ferr := finish()
		if ferr != nil {
			return res, fmt.Errorf("add node: %w (traffic: %v)", err, ferr)
		}
		return res, fmt.Errorf("add node: %w", err)
	}
	for i := uint64(0); i < cfg.Keys; i++ {
		if key := workload.Key(i); oldRing.Owner(key) != c.Ring().Owner(key) {
			res.Moved++
		}
	}
	if cfg.Remove {
		at := time.Now()
		if err := c.RemoveNode(0); err != nil {
			ferr := finish()
			if ferr != nil {
				return res, fmt.Errorf("remove node: %w (traffic: %v)", err, ferr)
			}
			return res, fmt.Errorf("remove node: %w", err)
		}
		res.RemoveMs = float64(time.Since(at).Microseconds()) / 1e3
	}

	// Tail window, then tear down.
	time.Sleep(cfg.Tail)
	if err := finish(); err != nil {
		return res, err
	}

	// Dip and recovery from the sampled intervals after resize start.
	res.DipKops = res.SteadyKops
	res.RecoveryMs = float64(time.Since(resizeStart).Milliseconds())
	recovered := false
	for i := 1; i < len(ticks); i++ {
		prev, cur := ticks[i-1], ticks[i]
		if cur.at.Before(resizeStart) {
			continue
		}
		secs := cur.at.Sub(prev.at).Seconds()
		if secs <= 0 {
			continue
		}
		rate := float64(cur.n-prev.n) / secs / 1e3
		if rate < res.DipKops {
			res.DipKops = rate
		}
		if !recovered && rate >= 0.9*res.SteadyKops {
			res.RecoveryMs = float64(cur.at.Sub(resizeStart).Milliseconds())
			recovered = true
		}
	}
	if res.SteadyKops > 0 {
		res.DipPct = 100 * (res.SteadyKops - res.DipKops) / res.SteadyKops
	}
	return res, nil
}

// migrateNodeCounts is the starting-size sweep of the registered
// migrate experiments.
var migrateNodeCounts = []int{2, 4}

func init() {
	for _, nodes := range migrateNodeCounts {
		for _, eng := range store.Engines {
			nodes, eng := nodes, eng
			Register(Def{
				ID: fmt.Sprintf("migrate/%dx%s", nodes, eng),
				Doc: fmt.Sprintf("host: live ring resize of a %d-node %s-engine cluster under load — "+
					"steady vs dip Kops/s, recovery and migration time", nodes, eng),
				On: []string{Native},
				Runner: func(s Shard) ([]Sample, error) {
					res, err := MigrateBench(MigrateBenchConfig{
						Nodes:   nodes,
						Engine:  eng,
						Clients: s.Threads,
						Steady:  200 * time.Millisecond,
						Remove:  true,
					})
					if err != nil {
						return nil, err
					}
					return []Sample{
						{Metric: "steady Kops/s", Value: res.SteadyKops},
						{Metric: "dip %", Value: res.DipPct},
						{Metric: "recovery ms", Value: res.RecoveryMs},
						{Metric: "add ms", Value: res.AddMs},
						{Metric: "remove ms", Value: res.RemoveMs},
					}, nil
				},
			})
		}
	}
}
