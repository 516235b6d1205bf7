package store

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ssync/internal/race"
	"ssync/internal/xrand"
)

// The scan path under its oracles: a sorted-map reference for what a
// scan returns, the optimistic engine's key order against the keys its
// buckets hold, scanners racing writers, and the allocation gate.

// scanFuzzKey maps a byte to one of 39 keys of one to three letters of
// "abc", so that keys share prefixes of every length and every shard
// holds several of them.
func scanFuzzKey(b byte) string {
	const letters = "abc"
	k := make([]byte, 1+int(b)%3)
	for i := range k {
		b /= 3
		k[i] = letters[int(b)%3]
	}
	return string(k)
}

// scanLimits are the limits every fuzzed scan runs at: unlimited, one,
// the benchmark's 16, and more than the alphabet has keys.
var scanLimits = []int{0, 1, 16, 100}

// FuzzScanModel is the scan path's differential fuzzer: an op stream
// decoded from the input — puts, deletes, migration applies, gets and
// scans — runs on every engine beside a sorted-map reference. Every scan
// must match the reference exactly, through all three scan surfaces
// (Handle.Scan, a batch's arena path, ExecView's encoding), for prefixes
// that match nothing, one key and so one shard, a band, or everything,
// and after every step the optimistic engine's published key order must
// be exactly the keys its buckets hold, sorted.
func FuzzScanModel(f *testing.F) {
	rng := xrand.New(25)
	for _, n := range []int{0, 8, 64, 256, 1024} {
		seed := make([]byte, n)
		for i := range seed {
			seed[i] = byte(rng.Uint64())
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, eng := range Engines {
			s := New(Options{Shards: 4, Buckets: 4, Engine: eng})
			runScanModel(t, s, data)
			s.Close()
		}
	})
}

func runScanModel(t *testing.T, s *Store, data []byte) {
	t.Helper()
	h := s.NewHandle(0)
	model := map[string][]byte{}
	var out []byte
	for step := 0; step+1 < len(data); step += 2 {
		op, arg := data[step], data[step+1]
		key := scanFuzzKey(arg)
		val := []byte(fmt.Sprintf("%s@%d", key, step))
		switch op % 8 {
		case 0, 1, 2:
			if created := h.Put(key, val); created != (model[key] == nil) {
				t.Fatalf("%s step %d: Put(%s) created=%v, model says %v", s.Engine(), step, key, created, model[key] == nil)
			}
			model[key] = val
		case 3:
			if found := h.Delete(key); found != (model[key] != nil) {
				t.Fatalf("%s step %d: Delete(%s) found=%v, model says %v", s.Engine(), step, key, found, model[key] != nil)
			}
			delete(model, key)
		case 4:
			next, third := scanFuzzKey(arg+1), scanFuzzKey(arg+2)
			h.ApplyMigration([]Entry{{Key: key, Value: val}, {Key: next, Value: val}}, []string{third})
			model[key], model[next] = val, val
			delete(model, third)
		case 5:
			if got, ok := h.Get(key); ok != (model[key] != nil) || !bytes.Equal(got, model[key]) {
				t.Fatalf("%s step %d: Get(%s) = %q, %v; model has %q", s.Engine(), step, key, got, ok, model[key])
			}
		default:
			var prefix string
			switch arg % 4 {
			case 0: // everything
			case 1:
				prefix = "x" // nothing
			case 2:
				prefix = key[:1] // a band
			default:
				prefix = key // one key, and so one shard
			}
			limit := scanLimits[int(op>>3)%len(scanLimits)]
			want := modelScan(model, prefix, limit)
			what := fmt.Sprintf("%s step %d: scan %q limit %d", s.Engine(), step, prefix, limit)
			sameEntries(t, what+" (Handle.Scan)", h.Scan(prefix, limit), want)
			req := RequestView{Op: OpScan, Key: []byte(prefix), Limit: uint32(limit)}
			sameEntries(t, what+" (ExecViews)", h.ExecViews([]RequestView{req})[0].Entries, want)
			var err error
			if out, err = h.ExecView(req, out[:0]); err != nil {
				t.Fatal(err)
			}
			resp, err := ParseResponse(OpScan, out)
			if err != nil {
				t.Fatal(err)
			}
			sameEntries(t, what+" (ExecView)", resp.Entries, want)
		}
		if e, ok := s.eng.(*optimisticEngine); ok {
			for i := range e.shards {
				order, live := e.orderAndKeys(i)
				if !equalStrings(order, live) {
					t.Fatalf("step %d: shard %d key order %q, its buckets hold %q", step, i, order, live)
				}
			}
		}
	}
}

// orderAndKeys returns shard i's published key order and the keys its
// published buckets hold, sorted — the order's invariant is that the two
// are equal whenever the shard is quiescent. A test-only accessor.
func (e *optimisticEngine) orderAndKeys(i int) (order, live []string) {
	sh := &e.shards[i]
	if p := sh.order.Load(); p != nil {
		order = *p
	}
	for b := range sh.buckets {
		if bk := sh.buckets[b].Load(); bk != nil {
			live = append(live, bk.keys...)
		}
	}
	sort.Strings(live)
	return order, live
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// modelScan is the reference: the model's keys under prefix, sorted,
// trimmed to limit.
func modelScan(model map[string][]byte, prefix string, limit int) []Entry {
	var out []Entry
	for k, v := range model {
		if strings.HasPrefix(k, prefix) {
			out = append(out, Entry{Key: k, Value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func sameEntries(t *testing.T, what string, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("%s: entry %d = %q/%q, want %q/%q", what, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// TestScanUnderWriters races scanners against creators and deleters on
// every engine (run it with -race; CI's engine-matrix leg does). Keys
// k-000..k-079: the even ones are stable — present from the start to the
// end, only ever overwritten — and the odd ones churn, created and
// deleted over and over. Every value written for a key starts with the
// key. Each scan result must be sorted, unique, under its prefix and at
// most limit long; each value one that was written for its key; and a
// stable key must never be missing from the window the scan covers —
// everything under the prefix when the result is short of the limit,
// everything up to its last key when it is not.
func TestScanUnderWriters(t *testing.T) {
	const keys, writers, scanners = 80, 2, 2
	passes := 40 // per scanner; the writers write until the scanners are done
	if testing.Short() {
		passes = 15
	}
	key := func(i int) string { return fmt.Sprintf("k-%03d", i) }
	for _, eng := range Engines {
		eng := eng
		t.Run(string(eng), func(t *testing.T) {
			t.Parallel()
			s := New(Options{Shards: 4, Buckets: 8, Engine: eng, MaxThreads: writers + scanners + 2})
			defer s.Close()
			h := s.NewHandle(0)
			for i := 0; i < keys; i += 2 {
				h.Put(key(i), []byte(key(i)+"#init"))
			}
			var writing sync.WaitGroup
			var done atomic.Bool
			for w := 0; w < writers; w++ {
				w := w
				writing.Add(1)
				go func() {
					defer writing.Done()
					h := s.NewHandle(0)
					rng := xrand.New(uint64(w) + 1)
					for n := 0; !done.Load(); n++ {
						i := int(rng.Uint64() % keys)
						switch {
						case i%2 == 0 || rng.Uint64()%2 == 0:
							h.Put(key(i), []byte(fmt.Sprintf("%s#%d.%d", key(i), w, n)))
						default:
							h.Delete(key(i))
						}
					}
				}()
			}
			var scanning sync.WaitGroup
			for r := 0; r < scanners; r++ {
				r := r
				scanning.Add(1)
				go func() {
					defer scanning.Done()
					h, conn := s.NewHandle(0), s.NewLocalConn(0)
					for pass := 0; pass < passes; pass++ {
						for _, prefix := range []string{"k-", "k-0", "k-03", "k-07"} {
							for _, limit := range []int{0, 5, 16} {
								var got []Entry
								if (pass+r)%2 == 0 {
									got = h.Scan(prefix, limit)
								} else {
									var err error
									if got, err = conn.Scan(prefix, limit); err != nil {
										t.Error(err)
										return
									}
								}
								if err := checkRacedScan(got, prefix, limit, keys, key); err != nil {
									t.Errorf("%s: scan %q limit %d: %v", eng, prefix, limit, err)
									return
								}
							}
						}
					}
				}()
			}
			scanning.Wait()
			done.Store(true)
			writing.Wait()
		})
	}
}

func checkRacedScan(got []Entry, prefix string, limit, keys int, key func(int) string) error {
	if limit > 0 && len(got) > limit {
		return fmt.Errorf("%d entries", len(got))
	}
	have := map[string]bool{}
	for i, e := range got {
		switch {
		case !strings.HasPrefix(e.Key, prefix):
			return fmt.Errorf("entry %q is not under the prefix", e.Key)
		case i > 0 && got[i-1].Key >= e.Key:
			return fmt.Errorf("%q before %q: not sorted and unique", got[i-1].Key, e.Key)
		case !strings.HasPrefix(string(e.Value), e.Key+"#"):
			return fmt.Errorf("%q holds %q, never written for it", e.Key, e.Value)
		}
		have[e.Key] = true
	}
	full := limit > 0 && len(got) == limit
	for i := 0; i < keys; i += 2 {
		k := key(i)
		if !strings.HasPrefix(k, prefix) || (full && k > got[len(got)-1].Key) {
			continue
		}
		if !have[k] {
			return fmt.Errorf("stable key %q missing from the window", k)
		}
	}
	return nil
}

// TestScanAllocs is the scan path's allocation gate, on every engine:
// Handle.Scan allocates its result slice and one value arena — two
// objects whether one entry, the benchmark's 16 or a hundred match — and
// ExecView's scan, encoded straight from the handle's merge scratch,
// allocates nothing in steady state.
func TestScanAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	val := make([]byte, 64)
	for _, eng := range Engines {
		t.Run(string(eng), func(t *testing.T) {
			s := New(Options{Shards: 8, Engine: eng})
			defer s.Close()
			h := s.NewHandle(0)
			for i := 0; i < 200; i++ {
				h.Put(fmt.Sprintf("scan-%03d", i), val)
			}
			for _, c := range []struct {
				prefix       string
				limit, match int
			}{{"scan-007", 0, 1}, {"scan-0", 16, 16}, {"scan-1", 0, 100}} {
				if n := len(h.Scan(c.prefix, c.limit)); n != c.match {
					t.Fatalf("Scan(%q, %d) = %d entries, want %d", c.prefix, c.limit, n, c.match)
				}
				if got := testing.AllocsPerRun(100, func() { h.Scan(c.prefix, c.limit) }); got != 2 {
					t.Errorf("Scan of %d entries: %.1f allocs, want 2 whatever the match count", c.match, got)
				}
				req := RequestView{Op: OpScan, Key: []byte(c.prefix), Limit: uint32(c.limit)}
				out, err := h.ExecView(req, nil) // warm-up: scratch and out grow once
				if err != nil {
					t.Fatal(err)
				}
				if got := testing.AllocsPerRun(100, func() { out, _ = h.ExecView(req, out[:0]) }); got != 0 {
					t.Errorf("ExecView scan of %d entries: %.1f allocs, want 0", c.match, got)
				}
			}
		})
	}
}
