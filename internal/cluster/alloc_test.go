package cluster

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ssync/internal/race"
	"ssync/internal/store"
	"ssync/internal/workload"
)

// discard is ServeConn's connection for serving recorded frames from
// memory: requests are read from a byte slice, responses are dropped.
type discard struct{ *bytes.Reader }

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestRoutedServeAllocs holds the real node filter to the allocation
// gate store's TestBatchServeAllocs holds the bare server to: on a node
// whose ring owns every key, ServeConn — parse, decide the owner from
// the frame bytes under the filter lock, execute, encode — allocates
// nothing per frame, scalar or batch, on the mutate-in-place engines.
// (The optimistic engine's puts pay their immutable value copy, which
// store's gate pins; here it serves reads only.) Per-connection set-up is
// measured out by serving the same cycle of frames at two lengths.
func TestRoutedServeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	const short, long = 4, 24
	val := make([]byte, 64)
	for _, eng := range store.Engines {
		t.Run(string(eng), func(t *testing.T) {
			c := newTestCluster(t, 1, store.Options{Engine: eng})
			keys := make([]string, 16)
			var entries []store.Entry
			for i := range keys {
				keys[i] = workload.Key(uint64(i))
				entries = append(entries, store.Entry{Key: keys[i], Value: val})
			}
			cl := c.Dial(1)
			if _, err := cl.MPut(entries); err != nil {
				t.Fatal(err)
			}
			cl.Close()

			reqs := []store.Request{
				{Op: store.OpGet, Key: keys[0]}, {Op: store.OpGet, Key: "absent"},
				{Op: store.OpDelete, Key: "absent too"}, {Op: store.OpGet, Key: keys[1]},
			}
			batches := []store.Batch{store.MGetBatch(keys[:8]), {Op: store.OpBatch, Reqs: reqs}}
			scalars := []store.Request{{Op: store.OpGet, Key: keys[2]}, {Op: store.OpDelete, Key: "absent"}}
			if eng != store.EngineOptimistic {
				batches = append(batches, store.MPutBatch(entries[:8]))
				scalars = append(scalars, store.Request{Op: store.OpPut, Key: keys[3], Value: val})
			}
			var cycle []byte
			frames := 0
			add := func(body []byte, err error) {
				if err != nil {
					t.Fatal(err)
				}
				cycle = binary.BigEndian.AppendUint32(cycle, uint32(len(body)))
				cycle = append(cycle, body...)
				frames++
			}
			for i, b := range batches {
				add(store.AppendBatchRequest(store.AppendTaggedRequest(nil, uint32(i+1)), b))
			}
			for _, r := range scalars {
				add(store.AppendRequest(nil, r))
			}
			serve := func(cycles int) float64 {
				stream := bytes.Repeat(cycle, cycles)
				return testing.AllocsPerRun(5, func() {
					if err := c.Server(0).ServeConn(discard{bytes.NewReader(stream)}); err != nil {
						t.Fatal(err)
					}
				})
			}
			if perCycle := (serve(long) - serve(short)) / (long - short); perCycle > 0 {
				t.Errorf("%.2f allocs per cycle of %d routed frames, want 0", perCycle, frames)
			}
		})
	}
}

// TestIssueAllocs is the client half's allocation gate, beside the
// server half's TestBatchServeAllocs and TestRoutedServeAllocs:
// Driver.Issue(ops).Wait() on every row at the benchmark's group shapes
// allocates nothing. Transports hand the Core views and the tally copies
// nothing, and everything a group needs while it is in flight — the
// Pending, its request slice, the flight with its frames and their
// futures, and when routed the positions and the owner-ordered requests
// of the split — is one recycled state, which a successful Wait puts
// back. So a group costs nothing whatever its size, its split over
// nodes, its hit count and its scans, a lone scan fanned out to every
// member included; the tally counts a scan's shares without merging.
func TestIssueAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	// One op; 4, 8 and 16 with every fourth a put; 8 whose gets all miss;
	// 4 with a scan; a lone scan.
	shapes := []struct {
		n            int
		absent, scan bool
	}{{1, false, false}, {4, false, false}, {8, false, false}, {16, false, false}, {8, true, false}, {4, false, true}, {1, false, true}}
	for _, tr := range transports {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			c := tr.open(t, store.Options{}).dial(0, 8)
			defer c.Close()
			keys := make([]string, 16)
			for i := range keys {
				keys[i] = workload.Key(uint64(i))
				if _, err := c.Put(keys[i], make([]byte, 64)); err != nil {
					t.Fatal(err)
				}
			}
			for _, shape := range shapes {
				ops := make([]workload.Op, shape.n)
				for j := range ops {
					key := keys[j]
					if shape.absent {
						key = "absent-" + key
					}
					ops[j] = workload.Op{Kind: workload.KindGet, Key: key}
					if j%4 == 3 {
						ops[j] = workload.Op{Kind: workload.KindPut, Key: keys[j], Value: make([]byte, 64)}
					}
				}
				if shape.scan {
					ops[min(1, shape.n-1)] = workload.Op{Kind: workload.KindScan, Key: keys[0][:len(keys[0])-1], Limit: 4}
				}
				issue := func() {
					if _, err := (store.Driver{C: c}).Issue(ops).Wait(); err != nil {
						t.Fatal(err)
					}
				}
				issue() // one warm-up group so steady-state buffers exist
				if got := testing.AllocsPerRun(100, issue); got != 0 {
					t.Errorf("group %+v: %.2f allocs per Issue+Wait, want 0 whatever the size, the split, the hits and the scans", shape, got)
				}
			}
		})
	}
}
