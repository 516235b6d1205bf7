// Package cli implements the ssync command-line tool: every subcommand is
// a library function, so cmd/ssync is a one-line wrapper and every
// invocation is unit-testable. Every table and figure of the paper is an
// experiment of `ssync run`.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// tool is one dispatchable subcommand.
type tool struct {
	name string
	doc  string
	main func(argv []string, stdout, stderr io.Writer) int
}

// tools lists every subcommand of ssync.
var tools = []tool{
	{"run", "run registered experiments (every table and figure of the paper)", RunMain},
	{"list", "list the registered experiments", ListMain},
	{"store", "sharded KVS: scenario workload over the wire protocol", StoreMain},
	{"cluster", "multi-node store cluster: consistent-hash routed workload", ClusterMain},
	{"topology", "print the simulated platform models", TopologyMain},
	{"lint", "static analysis: check the repo's concurrency and allocation invariants", LintMain},
}

// Main is the ssync entry point.
func Main(argv []string, stdout, stderr io.Writer) int {
	if len(argv) == 0 {
		usage(stderr)
		return 2
	}
	name := argv[0]
	switch name {
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	}
	for _, t := range tools {
		if t.name == name {
			return t.main(argv[1:], stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "ssync: unknown command %q\n\n", name)
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: ssync <command> [flags]")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "The SSYNC suite (SOSP'13 reproduction). Commands:")
	fmt.Fprintln(w, "")
	for _, t := range tools {
		fmt.Fprintf(w, "  %-10s %s\n", t.name, t.doc)
	}
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "example: ssync run locks/single -platform xeon -threads 1,10,36 -parallel 8 -json")
}

// parseArgs parses argv with fs. ok=false means the caller should stop
// and return code: 0 when -h asked for the usage text, 2 on a bad flag.
func parseArgs(fs *flag.FlagSet, argv []string) (code int, ok bool) {
	switch err := fs.Parse(argv); {
	case err == nil:
		return 0, true
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	default:
		return 2, false
	}
}

// parseInterleaved parses argv with fs, allowing flags and positional
// arguments in any order (`ssync run locks/single -json` and
// `ssync run -json locks/single` both work). It returns the positionals.
func parseInterleaved(fs *flag.FlagSet, argv []string) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(argv); err != nil {
			return nil, err
		}
		rest := fs.Args()
		if len(rest) == 0 {
			return pos, nil
		}
		pos = append(pos, rest[0])
		argv = rest[1:]
	}
}

// intList parses a comma-separated list of integers.
func intList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// splitList splits a comma-separated string list.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// Run is the process-level entry used by cmd/ main functions.
func Run(main func([]string, io.Writer, io.Writer) int) {
	os.Exit(main(os.Args[1:], os.Stdout, os.Stderr))
}
