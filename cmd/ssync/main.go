// ssync is the unified CLI of the suite: `ssync run` executes any subset
// of the registered experiments on the sharded harness with JSON, CSV or
// table output, `ssync list` enumerates them, and every formerly
// single-purpose tool (lockbench, ccbench, mpbench, sshtbench, tmbench,
// kvbench, figures, topology) is a subcommand.
//
// Usage:
//
//	ssync run locks/single -platform xeon -threads 1,10,36 -parallel 8 -json
//	ssync list
//	ssync figures -id F5
package main

import "ssync/internal/cli"

func main() { cli.Run(cli.Main) }
