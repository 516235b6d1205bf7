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
// (The optimistic engine's puts pay their copy-on-write, which store's
// gate bounds; here it serves reads only.) Per-connection set-up is
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
