package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ssync/internal/store"
	"ssync/internal/workload"
)

// keeper holds on to what a connection returned together with a deep copy
// taken on the spot, so that whatever a later frame overwrites — a value,
// a scan entry or a message still aliasing a read buffer, a pooled frame
// or an arena — shows when check compares the two at the end.
type keeper struct{ kept []keptResult }

type keptResult struct {
	what      string
	got, snap any
}

func (k *keeper) keep(what string, got any) {
	k.kept = append(k.kept, keptResult{what, got, deepCopy(got)})
}

func (k *keeper) check(t *testing.T) {
	t.Helper()
	for _, r := range k.kept {
		if !reflect.DeepEqual(r.got, r.snap) {
			t.Errorf("%s: retained result changed under later frames", r.what)
		}
	}
}

func deepCopy(v any) any {
	switch v := v.(type) {
	case []byte:
		return bytes.Clone(v)
	case [][]byte:
		out := make([][]byte, len(v))
		for i := range v {
			out[i] = bytes.Clone(v[i])
		}
		return out
	case []store.Entry:
		if v == nil {
			return v
		}
		out := make([]store.Entry, len(v))
		for i, e := range v {
			out[i] = store.Entry{Key: strings.Clone(e.Key), Value: bytes.Clone(e.Value)}
		}
		return out
	case store.Response:
		v.Value, v.Msg = bytes.Clone(v.Value), strings.Clone(v.Msg)
		v.Entries = deepCopy(v.Entries).([]store.Entry)
		return v
	case []store.Response:
		out := make([]store.Response, len(v))
		for i := range v {
			out[i] = deepCopy(v[i]).(store.Response)
		}
		return out
	}
	panic(fmt.Sprintf("deepCopy: %T", v))
}

// bigKeys hold the audit's large value, aliasBig: big enough to grow
// every read buffer, 40 of them overflow a response frame, and there are
// enough keys that on a routed row several nodes hold one.
var (
	bigKeys  = []string{"big-0", "big-1", "big-2", "big-3"}
	aliasBig = func() []byte {
		big := make([]byte, 128<<10)
		for i := range big {
			big[i] = byte(i * 7)
		}
		return big
	}()
)

// TestNoBufferAliasing is the frame-lifetime audit, over every row. A
// transport hands the Core views aliasing its own buffers — the lock-step
// client's read scratch; the windowed client's pooled frames, each owned
// by a future until awaited; the routed client's per-node frames; in
// process the handle's response slice, value arena, kept scan entries and
// merge scratch, with the optimistic engine's values aliased straight out
// of its buckets, so there every engine runs — and only the Core copies
// out. Everything the blocking seven return, and what a row's futures
// return from Wait and WaitBatch, is kept across rounds that interleave
// large and small answers, a batch answer too large for its frame, more
// than a thousand later requests of every shape with a window of Issue'd
// groups and futures in flight, Close, and a second connection reusing
// whatever pooled buffers the first gave back; then it is compared with
// the copies taken when it was returned.
func TestNoBufferAliasing(t *testing.T) {
	t.Parallel()
	for _, tr := range transports {
		engines := store.Engines[:1]
		if tr.local {
			engines = store.Engines
		}
		for _, eng := range engines {
			name := tr.name
			if tr.local {
				name += "/" + string(eng)
			}
			tr, eng := tr, eng
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				const window = 8
				b := tr.open(t, store.Options{Shards: 2, Buckets: 8, Engine: eng})
				c := b.dial(0, window)
				for _, key := range bigKeys {
					if _, err := c.Put(key, aliasBig); err != nil {
						t.Fatal(err)
					}
				}
				var k keeper
				for round := 0; round < 8; round++ {
					keepBlockingSeven(t, &k, c, round, !tr.local)
					keepFutures(t, &k, c, round)
				}
				churn(t, c, window, 1000)
				c.Close()
				c = b.dial(1, window)
				defer c.Close()
				churn(t, c, window, 200)
				k.check(t)
			})
		}
	}
}

// keepBlockingSeven runs every blocking method of c, over the big values
// and round's small keys, and keeps all they return: values, multi-get
// values, scan entries (fanned out and merged on a routed row), batch
// responses with their scan entries, and — once, on a row with frames —
// the MsgBatchOverflow messages of a batch answer too large for one.
func keepBlockingSeven(t *testing.T, k *keeper, c store.BatchConn, round int, framed bool) {
	t.Helper()
	small := fmt.Sprintf("alias-small-%02d", round)
	fill := bytes.Repeat([]byte{byte(round + 1)}, 512)
	if _, err := c.Put(small, fill); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MPut([]store.Entry{{Key: small + "-m", Value: fill[:100]}}); err != nil {
		t.Fatal(err)
	}
	// A large response fills the read scratch, then a small one follows
	// it, shrinking the frame.
	for _, key := range []string{bigKeys[round%len(bigKeys)], small} {
		v, found, err := c.Get(key)
		if err != nil || !found {
			t.Fatalf("Get(%s): %v, %v", key, found, err)
		}
		k.keep("Get "+key, v)
	}
	if v, _, _ := c.Get(small); !bytes.Equal(v, fill) {
		t.Fatalf("Get(%s) = %d bytes starting % x", small, len(v), v[:min(len(v), 4)])
	}
	// One multi-get answer small enough for its frame to be pooled and
	// reused, one too big to be.
	for _, keys := range [][]string{{small, "alias-absent", small + "-m"}, append([]string{small}, bigKeys...)} {
		vals, err := c.MGet(keys)
		if err != nil {
			t.Fatal(err)
		}
		k.keep("MGet", vals)
	}
	for _, prefix := range []string{"alias-small-", "big-"} {
		entries, err := c.Scan(prefix, 0)
		if err != nil || len(entries) < 2 {
			t.Fatalf("Scan(%s) = %d entries, %v", prefix, len(entries), err)
		}
		k.keep("Scan "+prefix, entries)
	}
	resps, err := c.ExecBatch([]store.Request{{Op: store.OpGet, Key: bigKeys[0]}, {Op: store.OpScan, Key: "alias-small-"},
		{Op: store.OpGet, Key: small}, {Op: store.OpDelete, Key: small + "-m"}, {Op: store.OpGet, Key: bigKeys[1]}})
	if err != nil {
		t.Fatal(err)
	}
	k.keep("ExecBatch", resps)
	if round > 0 || !framed {
		return
	}
	// 40 × 128 KiB do not fit one response frame: the server delivers the
	// head and degrades the tail to StatusError sub-responses, whose
	// messages are kept too, and the connection lives on.
	gets := make([]store.Request, 40)
	for i := range gets {
		gets[i] = store.Request{Op: store.OpGet, Key: bigKeys[0]}
	}
	resps, err = c.ExecBatch(gets)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.Status == store.StatusOK && bytes.Equal(r.Value, aliasBig) {
			continue
		}
		if i == 0 || r.Status != store.StatusError || r.Msg != store.MsgBatchOverflow {
			t.Fatalf("get %d of a 5 MiB batch answer = status %d %q, %d bytes; want the head delivered, the tail degraded", i, r.Status, r.Msg, len(r.Value))
		}
	}
	if last := resps[len(resps)-1]; last.Status != store.StatusError {
		t.Fatal("a 5 MiB batch answer was delivered whole")
	}
	k.keep("ExecBatch past one frame", resps)
}

// keepFutures puts a row's futures in flight together — point gets, big
// and small, and a small batch frame with a scan — and keeps what Wait
// and WaitBatch return.
func keepFutures(t *testing.T, k *keeper, c store.BatchConn, round int) {
	t.Helper()
	fut, ok := c.(futures)
	if !ok {
		return
	}
	small := fmt.Sprintf("alias-small-%02d", round)
	gets := []*store.Future{fut.GetAsync(bigKeys[0]), fut.GetAsync(small), fut.GetAsync(bigKeys[round%len(bigKeys)])}
	batch := batchFrame(c)([]store.Request{{Op: store.OpGet, Key: small}, {Op: store.OpScan, Key: "alias-small-"}})
	for i, f := range gets {
		resp, err := f.Wait()
		if err != nil || resp.Status != store.StatusOK {
			t.Fatalf("round %d: future %d: status %d, %v", round, i, resp.Status, err)
		}
		k.keep("Wait", resp)
	}
	resps, err := batch.WaitBatch()
	if err != nil {
		t.Fatalf("round %d: batch frame: %v", round, err)
	}
	k.keep("WaitBatch", resps)
}

// churn pushes n more requests through c, rotating over every blocking
// shape, Issue'd groups — a scan fanned out in every other — and on a row
// with a window its futures, which are awaited a window at a time: every
// pooled buffer of every size changes hands, with flights pending.
func churn(t *testing.T, c store.BatchConn, window, n int) {
	t.Helper()
	fut, _ := c.(futures)
	var flights []func() error
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("alias-small-%02d", i%9)
		val := bytes.Repeat([]byte{byte(i)}, 300+i%300)
		var err error
		switch {
		case i%8 == 0:
			_, err = c.Put(key, val)
		case i%8 == 1:
			_, _, err = c.Get(key)
		case i%8 == 2:
			_, err = c.MGet([]string{key, bigKeys[i%len(bigKeys)], key})
		case i%8 == 3:
			_, err = c.Scan("alias-small-", i%4)
		case i%8 == 4:
			_, err = c.ExecBatch([]store.Request{{Op: store.OpScan, Key: "alias-"}, {Op: store.OpGet, Key: key},
				{Op: store.OpScan, Key: "alias-small-0", Limit: 2}})
		case i%8 == 5:
			_, err = c.Delete(key)
		case i%16 == 7 && fut != nil:
			f := fut.PutAsync(key, val)
			flights = append(flights, func() error { _, err := f.Wait(); return err })
		case i%16 == 15 && fut != nil:
			f := fut.GetAsync(bigKeys[i%len(bigKeys)])
			flights = append(flights, func() error { _, err := f.Wait(); return err })
		default:
			group := []workload.Op{{Kind: workload.KindGet, Key: key}, {Kind: workload.KindPut, Key: key, Value: val},
				{Kind: workload.KindGet, Key: fmt.Sprintf("alias-small-%02d", (i+4)%9)}}
			if i%16 >= 8 {
				group = append(group, workload.Op{Kind: workload.KindScan, Key: "alias-small-"})
			}
			p := c.Issue(group)
			flights = append(flights, func() error { _, err := p.Wait(); return err })
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(flights) < window && i < n-1 {
			continue
		}
		for _, wait := range flights {
			if err := wait(); err != nil {
				t.Fatal(err)
			}
		}
		flights = flights[:0]
	}
}
