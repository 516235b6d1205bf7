// ssync is the unified CLI of the suite: `ssync run` executes any subset
// of the registered experiments — every table and figure of the paper
// among them — on the sharded harness with JSON, CSV or table output,
// `ssync list` enumerates them, and `store`, `cluster`, `topology` and
// `lint` are the other subcommands.
//
// Usage:
//
//	ssync run locks/single -platform xeon -threads 1,10,36 -parallel 8 -json
//	ssync list
//	ssync run cc/latency -platform Opteron
package main

import "ssync/internal/cli"

func main() { cli.Run(cli.Main) }
