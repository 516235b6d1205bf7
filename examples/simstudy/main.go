// simstudy: drive the many-core simulator directly to answer a placement
// question the paper cares about — how much does thread placement change
// the throughput of one contended lock on the Opteron model? This is the
// experiment behind the paper's "if we do not explicitly pin the threads,
// the multi-sockets deliver 4 to 6 times lower maximum throughput".
//
//	go run ./examples/simstudy
package main

import (
	"fmt"
	"io"
	"os"

	"ssync/internal/arch"
	"ssync/internal/memsim"
	"ssync/internal/simlocks"
	"ssync/internal/xrand"
)

func main() { run(os.Stdout, false) }

// run prints the study to w; small simulates 20k cycles per placement
// instead of 400k.
func run(w io.Writer, small bool) {
	deadline := uint64(400_000)
	if small {
		deadline = 20_000
	}
	p := arch.Opteron()
	fmt.Fprintf(w, "placement study on the %s model: 12 threads, one %s lock\n\n",
		p.Name, simlocks.TICKET)
	fmt.Fprintf(w, "%-28s %10s\n", "placement", "Mops/s")
	fmt.Fprintf(w, "%-28s %10.2f\n", "packed (2 dies, paper)", measure(p, packed(p, 12), deadline))
	fmt.Fprintf(w, "%-28s %10.2f\n", "striped across all 8 dies", measure(p, striped(p, 12), deadline))
	fmt.Fprintf(w, "%-28s %10.2f\n", "scattered (OS-style random)", measure(p, scattered(p, 12), deadline))
	fmt.Fprintln(w, "\nPacked placement keeps lock hand-overs inside a die;")
	fmt.Fprintln(w, "anything else pays cross-socket coherence on every hand-over.")
}

// packed fills dies in order — the paper's pinning policy.
func packed(p *arch.Platform, n int) []int { return p.PlaceThreads(n) }

// striped spreads threads round-robin across the dies.
func striped(p *arch.Platform, n int) []int {
	perDie := p.NumCores / p.NumNodes
	out := make([]int, n)
	for i := range out {
		out[i] = (i%p.NumNodes)*perDie + i/p.NumNodes
	}
	return out
}

// scattered picks distinct cores pseudo-randomly, like an unpinned OS
// schedule snapshot.
func scattered(p *arch.Platform, n int) []int {
	rng := xrand.New(42)
	perm := rng.Perm(p.NumCores)
	return perm[:n]
}

// measure simulates deadline cycles of a placement and returns its total
// acquisition throughput.
func measure(p *arch.Platform, cores []int, deadline uint64) float64 {
	m := memsim.New(p)
	m.Opt.CostJitter = 0.15
	lock := simlocks.New(m, simlocks.TICKET, p.NodeOf(cores[0]), simlocks.DefaultOptions(p))
	data := m.AllocLine(p.NodeOf(cores[0]))
	m.SetDeadline(deadline)
	for ti, c := range cores {
		rng := xrand.New(uint64(ti) + 9)
		m.Spawn(c, func(t *memsim.Thread) {
			t.Pause(rng.Uint64() % 4096)
			for !t.Done() {
				lock.Acquire(t)
				t.Store(data, t.Load(data)+1)
				lock.Release(t)
				t.Pause(100)
			}
		})
	}
	cycles := m.Run()
	// The protected counter is the acquisition count.
	return p.MopsFrom(m.Peek(data), cycles)
}
