// Cluster: spin up a 3-node store cluster behind a consistent-hash
// ring, show that every key has exactly one owner node, drive a
// batched pipelined routed client across the nodes — the repository's
// single-node scaling story (shards → engines → pipelining) extended
// past one process — and then resize the cluster live: add a fourth
// node and retire an original one while the data stays put-able and
// get-able, watching how many keys each membership change moves.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"ssync/internal/cluster"
	"ssync/internal/store"
	"ssync/internal/workload"
)

const (
	nodes   = 3
	clients = 4
)

func main() { run(os.Stdout, false) }

// run prints the walkthrough to w and panics on any lost key; small
// shrinks the key space, the traffic and the sentinel set tenfold or
// more.
func run(w io.Writer, small bool) {
	nKeys, opsEach, sentinels := uint64(9000), 20000, 1000
	if small {
		nKeys, opsEach, sentinels = 900, 500, 100
	}
	c := cluster.New(cluster.Options{Nodes: nodes, Store: store.Options{Shards: 8}})
	defer c.Close()

	// Ownership: the ring partitions the key space — one owner per key.
	counts := make([]int, nodes)
	for i := uint64(0); i < nKeys; i++ {
		counts[c.Ring().Owner(workload.Key(i))]++
	}
	fmt.Fprintf(w, "%d keys over %d nodes (%d virtual points each):\n", nKeys, nodes, c.Ring().Vnodes())
	for n, cnt := range counts {
		fmt.Fprintf(w, "  node %d owns %5d keys (%4.1f%%)\n", n, cnt, 100*float64(cnt)/float64(nKeys))
	}

	// Traffic: routed clients split each op group per owner node and
	// keep several groups in flight through every node's async window.
	scenario := workload.Scenario{
		Keys:     nKeys,
		Mix:      workload.Mix{Get: 90, Put: 10},
		Preload:  int(nKeys / 2),
		Phases:   []workload.Phase{{Name: "steady", Clients: clients, Ops: opsEach}},
		Batch:    8,
		Pipeline: 8,
	}
	start := time.Now()
	results, err := workload.Run(scenario, func(int) (workload.PipeConn, error) {
		return store.Driver{C: c.Dial(8)}, nil
	})
	if err != nil {
		panic(err)
	}
	steady := results[len(results)-1]
	fmt.Fprintf(w, "\n%d routed clients, batch 8 × depth 8: %d ops in %v (%.1f Kops/s)\n",
		clients, steady.Ops, time.Since(start).Round(time.Millisecond), steady.Kops())

	// Elastic membership: resize the loaded cluster live. AddNode streams
	// the arcs that change owner to the new node while the ring keeps
	// serving; RemoveNode drains a member the same way in reverse. A
	// sentinel key set written after the traffic (whose mix deletes a
	// share of the workload keys) proves the migrations lose nothing.
	cl := c.Dial(8)
	defer cl.Close()
	sentinel := func(i int) string { return fmt.Sprintf("resize-demo-%04d", i) }
	for i := 0; i < sentinels; i++ {
		if _, err := cl.Put(sentinel(i), []byte(sentinel(i))); err != nil {
			panic(err)
		}
	}
	mustGet := func(key string) {
		v, ok, err := cl.Get(key)
		if err != nil || !ok || string(v) != key {
			panic(fmt.Sprintf("Get(%q) after resize: ok=%v err=%v", key, ok, err))
		}
	}
	countMoved := func(old *cluster.Ring) int {
		moved := 0
		for i := uint64(0); i < nKeys; i++ {
			if key := workload.Key(i); old.Owner(key) != c.Ring().Owner(key) {
				moved++
			}
		}
		return moved
	}

	before := c.Ring()
	start = time.Now()
	id, err := c.AddNode()
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "\nAddNode → node %d in %v: %d of %d keys migrated (≈1/%d, the\n",
		id, time.Since(start).Round(time.Millisecond), countMoved(before), nKeys, nodes+1)
	fmt.Fprintln(w, "consistent-hashing promise — only the new node's arcs moved).")

	before = c.Ring()
	start = time.Now()
	if err := c.RemoveNode(0); err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "RemoveNode(0) in %v: %d keys migrated off; members now %v.\n",
		time.Since(start).Round(time.Millisecond), countMoved(before), c.Members())

	// Every sentinel survived both migrations, readable through the
	// routed client (retargeted automatically by the resizes).
	for i := 0; i < sentinels; i++ {
		mustGet(sentinel(i))
	}
	fmt.Fprintf(w, "All %d sentinel keys intact after grow + shrink.\n", sentinels)

	fmt.Fprintln(w, "\nEvery key lives on one node and there in one shard — at every")
	fmt.Fprintln(w, "instant, across resizes — so per-key linearizability survives the")
	fmt.Fprintln(w, "cluster layer by construction (TestClusterLinearizableAcrossMigration).")
	fmt.Fprintln(w, "Run `ssync cluster -nodes 4` for the single-node-baseline comparison,")
	fmt.Fprintln(w, "and `ssync cluster -resize` to measure a live resize under load.")
}
