// Package harness is the experiment layer of the suite: every table and
// figure of the paper's evaluation (§5–§8) and every native Go library
// (locks, mp, ssht, tm, kvs, lockfree, the store) registers as an
// Experiment, and one sharded runner executes any subset of the
// experiment × platform × thread-count grid in parallel, aggregates the
// repetitions through internal/stats and emits JSON, CSV or fixed-width
// tables. The simulation kernels that reproduce the paper live beside the
// experiments that call them. cmd/ssync is the CLI over this package.
package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ssync/internal/arch"
)

// Native is the pseudo-platform name of experiments that run real
// goroutines on the host instead of the simulator's machine models.
const Native = "native"

// Shard is one cell of the run grid: an experiment on one platform at one
// thread count, executed Config-scaled.
type Shard struct {
	// Platform is a machine-model name (arch.Names) or Native.
	Platform string
	// Threads is the grid thread count.
	Threads int
	// Rep is the repetition index, 0-based over the measured reps.
	Rep int
	// Warmup marks discarded warm-up repetitions.
	Warmup bool
	// Config scales the run (zero fields fall back to the defaults).
	Config Config
}

// Config scales the simulated experiments. Zero fields take the defaults:
// 400 000 cycles, 200 latency operations and 5 repetitions.
type Config struct {
	// Deadline is the simulated duration of each throughput measurement,
	// in cycles. Native experiments derive their operation counts from it.
	Deadline uint64
	// LatencyOps is the number of operations timed in latency experiments.
	LatencyOps int
	// Reps is the repetition count of each ccbench single-op case.
	Reps int
}

// orDefault fills unset fields with the defaults.
func (c Config) orDefault() Config {
	if c.Deadline == 0 {
		c.Deadline = 400_000
	}
	if c.LatencyOps == 0 {
		c.LatencyOps = 200
	}
	if c.Reps == 0 {
		c.Reps = 5
	}
	return c
}

// Sample is one named measurement produced by a shard run.
type Sample struct {
	// Metric labels the measurement, e.g. a lock algorithm name.
	Metric string
	// Value is the measured quantity (Mops/s, Kops/s or cycles).
	Value float64
}

// Experiment is one registered suite member.
type Experiment interface {
	// Name is the registry key, e.g. "locks/single".
	Name() string
	// Description is a one-line summary for listings.
	Description() string
	// Platforms lists the platforms the experiment supports.
	Platforms() []string
	// Threads returns the default thread grid on a platform.
	Threads(platform string) []int
	// Run executes one shard and returns its samples.
	Run(s Shard) ([]Sample, error)
}

// Def is a declarative Experiment.
type Def struct {
	// ID is the registry name.
	ID string
	// Doc is the one-line description.
	Doc string
	// On lists the supported platforms; nil means the four paper models.
	On []string
	// Grid returns the default thread counts per platform; nil uses
	// DefaultThreads.
	Grid func(platform string) []int
	// Runner executes one shard.
	Runner func(s Shard) ([]Sample, error)
}

// Name implements Experiment.
func (d Def) Name() string { return d.ID }

// Description implements Experiment.
func (d Def) Description() string { return d.Doc }

// Platforms implements Experiment.
func (d Def) Platforms() []string {
	if d.On == nil {
		return PaperPlatforms()
	}
	return d.On
}

// Threads implements Experiment.
func (d Def) Threads(platform string) []int {
	if d.Grid == nil {
		return DefaultThreads(platform)
	}
	return d.Grid(platform)
}

// Run implements Experiment. Unset Config fields take the defaults.
func (d Def) Run(s Shard) ([]Sample, error) {
	s.Config = s.Config.orDefault()
	return d.Runner(s)
}

// PaperPlatforms returns the four machine models of the paper's
// evaluation (the X2 extras Opteron2/Xeon2 are opt-in per experiment).
func PaperPlatforms() []string {
	return []string{"Opteron", "Xeon", "Niagara", "Tilera"}
}

// DefaultThreads returns the default grid for a platform: the paper's
// cross-platform counts of Figures 8 and 11 for the models (up to 36
// cores for comparability), a small power-of-two ladder for native runs.
func DefaultThreads(platform string) []int {
	switch platform {
	case "Opteron":
		return []int{1, 6, 18, 36}
	case "Xeon":
		return []int{1, 10, 18, 36}
	case "Niagara", "Tilera":
		return []int{1, 8, 18, 36}
	}
	return []int{1, 2, 4, 8}
}

// CanonicalPlatform resolves a case-insensitive platform name ("xeon",
// "NATIVE") to its canonical spelling, or "" when unknown.
func CanonicalPlatform(name string) string {
	if strings.EqualFold(name, Native) {
		return Native
	}
	for _, n := range arch.Names() {
		if strings.EqualFold(n, name) {
			return n
		}
	}
	return ""
}

// Registry holds named experiments.
type Registry struct {
	mu   sync.RWMutex
	byID map[string]Experiment
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byID: map[string]Experiment{}} }

// Register adds an experiment; duplicate names error.
func (r *Registry) Register(e Experiment) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := e.Name()
	if name == "" {
		return fmt.Errorf("harness: experiment with empty name")
	}
	if _, dup := r.byID[name]; dup {
		return fmt.Errorf("harness: duplicate experiment %q", name)
	}
	r.byID[name] = e
	return nil
}

// Experiments returns every registered experiment sorted by name.
func (r *Registry) Experiments() []Experiment {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Experiment, 0, len(r.byID))
	for _, e := range r.byID {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// ByName returns the experiment with the given name, or an error listing
// the valid names.
func (r *Registry) ByName(name string) (Experiment, error) {
	r.mu.RLock()
	e, ok := r.byID[name]
	r.mu.RUnlock()
	if ok {
		return e, nil
	}
	var names []string
	for _, x := range r.Experiments() {
		names = append(names, x.Name())
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", name, names)
}

// Match resolves a set of patterns to experiments, in registry order and
// without duplicates. A pattern is an exact name, a "group/" prefix, or
// "all" (also the meaning of an empty pattern list).
func (r *Registry) Match(patterns []string) ([]Experiment, error) {
	all := r.Experiments()
	if len(patterns) == 0 {
		return all, nil
	}
	seen := map[string]bool{}
	var out []Experiment
	for _, pat := range patterns {
		if pat == "all" || pat == "" {
			for _, e := range all {
				if !seen[e.Name()] {
					seen[e.Name()] = true
					out = append(out, e)
				}
			}
			continue
		}
		matched := false
		for _, e := range all {
			if e.Name() == pat || (strings.HasSuffix(pat, "/") && strings.HasPrefix(e.Name(), pat)) {
				matched = true
				if !seen[e.Name()] {
					seen[e.Name()] = true
					out = append(out, e)
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("harness: pattern %q matches no experiment (try `ssync list`)", pat)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// Default is the registry the suite members register into and cmd/ssync
// serves.
var Default = NewRegistry()

// Register adds an experiment to the default registry, panicking on
// duplicates (registration is init-time wiring).
func Register(e Experiment) {
	if err := Default.Register(e); err != nil {
		panic(err)
	}
}
