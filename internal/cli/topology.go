package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"ssync/internal/arch"
)

// TopologyMain prints the platform models the simulator uses: core
// counts, memory nodes, distance-class matrices and the calibrated local
// latencies — a quick way to inspect what "Opteron" or "Tilera" means in
// every figure of this repository.
func TopologyMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topology", flag.ContinueOnError)
	fs.SetOutput(stderr)
	platforms := fs.String("platform", strings.Join(arch.Names(), ","), "comma-separated platform models")
	if code, ok := parseArgs(fs, argv); !ok {
		return code
	}

	for _, name := range splitList(*platforms) {
		p := arch.ByName(name)
		if p == nil {
			fmt.Fprintf(stderr, "topology: unknown platform %q (have %v)\n", name, arch.Names())
			return 2
		}
		fmt.Fprintf(stdout, "%s — %d cores, %d memory nodes, %.2f GHz\n", p.Name, p.NumCores, p.NumNodes, p.ClockGHz)
		fmt.Fprintf(stdout, "  local latencies: L1 %d, L2 %d, LLC %d, RAM %d cycles\n", p.L1, p.L2, p.LLC, p.RAM)
		fmt.Fprintf(stdout, "  distance classes: %s\n", strings.Join(p.DistNames, ", "))
		var quirks []string
		if p.IncompleteDirectory {
			quirks = append(quirks, "incomplete probe filter (MOESI, broadcast on shared stores)")
		}
		if p.InclusiveLLC {
			quirks = append(quirks, "inclusive LLC (intra-socket locality)")
		}
		if p.Uniform {
			quirks = append(quirks, "uniform crossbar LLC")
		}
		if p.HardwareMP {
			quirks = append(quirks, "hardware message passing (iMesh)")
		}
		if len(quirks) > 0 {
			fmt.Fprintf(stdout, "  quirks: %s\n", strings.Join(quirks, "; "))
		}
		// Node-distance matrix via one representative core per node.
		var reps []int
		seen := map[int]bool{}
		for c := 0; c < p.NumCores && len(reps) < p.NumNodes; c++ {
			if n := p.NodeOf(c); !seen[n] {
				seen[n] = true
				reps = append(reps, c)
			}
		}
		if p.NumNodes > 1 {
			fmt.Fprintf(stdout, "  node distance classes (via representative cores):\n      ")
			for j := range reps {
				fmt.Fprintf(stdout, "%4d", j)
			}
			fmt.Fprintln(stdout)
			for i, a := range reps {
				fmt.Fprintf(stdout, "  %4d", i)
				for _, b := range reps {
					fmt.Fprintf(stdout, "%4d", p.DistClass(a, b))
				}
				fmt.Fprintln(stdout)
			}
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
