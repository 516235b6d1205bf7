package harness

import (
	"errors"
	"fmt"
	"sync"

	"ssync/internal/arch"
	"ssync/internal/stats"
)

// ErrGrid marks a run rejected before any shard started: an unknown
// platform, experiments that run on none of the requested platforms, or a
// thread count below 1 or above a machine model's core count.
var ErrGrid = errors.New("harness: invalid grid")

// Options shapes one runner invocation.
type Options struct {
	// Platforms restricts the grid; nil uses each experiment's own list.
	// Names are matched case-insensitively.
	Platforms []string
	// Threads restricts the grid; nil uses each experiment's default grid.
	Threads []int
	// Parallel is the worker-pool size executing shards; values below 1
	// mean sequential.
	Parallel int
	// Reps is the number of measured repetitions per shard (default 1).
	Reps int
	// Warmup is the number of discarded warm-up repetitions per shard.
	Warmup int
	// Config scales every run; zero fields fall back to the defaults.
	Config Config
}

// Result is the aggregate of one grid cell and metric over the measured
// repetitions.
type Result struct {
	Experiment string        `json:"experiment"`
	Platform   string        `json:"platform"`
	Threads    int           `json:"threads"`
	Metric     string        `json:"metric"`
	Stats      stats.Summary `json:"stats"`
}

// shard is one unit of work handed to the pool.
type shard struct {
	index int // grid position, for deterministic output ordering
	exp   Experiment
	plat  string
	n     int
}

// Run executes the experiment × platform × thread-count grid described by
// opt over the given experiments and returns one Result per cell and
// metric, in deterministic grid order regardless of scheduling. Shards
// that fail are reported in the joined error; the others still produce
// results.
func Run(exps []Experiment, opt Options) ([]Result, error) {
	shards, err := buildGrid(exps, opt)
	if err != nil {
		return nil, err
	}
	if len(shards) == 0 && len(exps) > 0 {
		var names []string
		for _, e := range exps {
			names = append(names, e.Name())
		}
		return nil, fmt.Errorf("%w: no experiment in %v runs on platforms %v", ErrGrid, names, opt.Platforms)
	}
	if opt.Reps < 1 {
		opt.Reps = 1
	}
	workers := opt.Parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(shards) {
		workers = len(shards)
	}

	perShard := make([][]Result, len(shards))
	errs := make([]error, len(shards))
	jobs := make(chan shard)
	var wg sync.WaitGroup
	// Simulated shards parallelise freely (virtual time is immune to
	// scheduling), but native shards measure wall-clock time with
	// spinning goroutines, so each one gets the machine to itself:
	// native takes the write side of the lock, everything else the read
	// side.
	var wallclock sync.RWMutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				if s.plat == Native {
					wallclock.Lock()
				} else {
					wallclock.RLock()
				}
				perShard[s.index], errs[s.index] = runShard(s, opt)
				if s.plat == Native {
					wallclock.Unlock()
				} else {
					wallclock.RUnlock()
				}
			}
		}()
	}
	for _, s := range shards {
		jobs <- s
	}
	close(jobs)
	wg.Wait()

	var out []Result
	for _, rs := range perShard {
		out = append(out, rs...)
	}
	return out, errors.Join(errs...)
}

// buildGrid expands experiments × platforms × thread counts into shards,
// rejecting a thread count no shard could run.
func buildGrid(exps []Experiment, opt Options) ([]shard, error) {
	var restrict []string
	for _, name := range opt.Platforms {
		c := CanonicalPlatform(name)
		if c == "" {
			return nil, fmt.Errorf("%w: unknown platform %q", ErrGrid, name)
		}
		restrict = append(restrict, c)
	}
	var shards []shard
	for _, e := range exps {
		plats := e.Platforms()
		if restrict != nil {
			var keep []string
			for _, p := range plats {
				for _, r := range restrict {
					if p == r {
						keep = append(keep, p)
						break
					}
				}
			}
			plats = keep // empty: experiment not on the requested platforms
		}
		for _, p := range plats {
			grid := opt.Threads
			if grid == nil {
				grid = e.Threads(p)
			}
			m := arch.ByName(p)
			for _, n := range grid {
				if n < 1 {
					return nil, fmt.Errorf("%w: %s on %s: %d threads, need at least 1", ErrGrid, e.Name(), p, n)
				}
				if m != nil && n > m.NumCores {
					return nil, fmt.Errorf("%w: %s on %s: %d threads, the model has %d cores", ErrGrid, e.Name(), p, n, m.NumCores)
				}
				shards = append(shards, shard{index: len(shards), exp: e, plat: p, n: n})
			}
		}
	}
	return shards, nil
}

// runShard executes one shard's warm-up and measured repetitions and
// aggregates per metric.
func runShard(s shard, opt Options) ([]Result, error) {
	base := Shard{Platform: s.plat, Threads: s.n, Config: opt.Config}
	for w := 0; w < opt.Warmup; w++ {
		sh := base
		sh.Rep, sh.Warmup = w, true
		if _, err := s.exp.Run(sh); err != nil {
			return nil, fmt.Errorf("%s on %s ×%d (warmup): %w", s.exp.Name(), s.plat, s.n, err)
		}
	}
	acc := map[string]*stats.Online{}
	var order []string
	for rep := 0; rep < opt.Reps; rep++ {
		sh := base
		sh.Rep = rep
		samples, err := s.exp.Run(sh)
		if err != nil {
			return nil, fmt.Errorf("%s on %s ×%d: %w", s.exp.Name(), s.plat, s.n, err)
		}
		for _, smp := range samples {
			o := acc[smp.Metric]
			if o == nil {
				o = &stats.Online{}
				acc[smp.Metric] = o
				order = append(order, smp.Metric)
			}
			o.Add(smp.Value)
		}
	}
	var out []Result
	for _, metric := range order {
		out = append(out, Result{
			Experiment: s.exp.Name(),
			Platform:   s.plat,
			Threads:    s.n,
			Metric:     metric,
			Stats:      acc[metric].Summary(),
		})
	}
	return out, nil
}
