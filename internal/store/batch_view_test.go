package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"testing"
	"unsafe"

	"ssync/internal/race"
)

// The zero-copy batch serve path under its oracles: the view parser
// against the owning one, ServeConn's response bytes against the
// reference composition ParseBatchRequest → Handle.ExecBatch → encode,
// and the whole path against the allocation gate point ops already
// answer to.

// FuzzParseBatchRequestView is the differential fuzzer of the view
// parser: it must accept and reject exactly what ParseBatchRequest
// does, with the same error, and decode the same fields.
func FuzzParseBatchRequestView(f *testing.F) {
	for _, s := range batchRequestSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		b, err := ParseBatchRequest(body)
		views, verr := ParseBatchRequestView(body, nil)
		if err != verr {
			t.Fatalf("owning parser: %v, view parser: %v", err, verr)
		}
		if len(views) != len(b.Reqs) {
			t.Fatalf("%d views for %d owning sub-requests", len(views), len(b.Reqs))
		}
		for i, v := range views {
			r := b.Reqs[i]
			if v.Op != r.Op || string(v.Key) != r.Key || !bytes.Equal(v.Value, r.Value) || v.Limit != r.Limit {
				t.Fatalf("sub %d: view %+v, owning %+v", i, v, r)
			}
		}
	})
}

// TestParseBatchPresized pins the decoders' allocation shape: one
// result slice sized from the validated count, never from a count the
// bytes cannot back.
func TestParseBatchPresized(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	ops := bytes.Repeat([]byte{OpGet}, 8)
	resps := make([]Response, 8)
	hits := 0
	for i := range resps {
		resps[i] = Response{Status: StatusNotFound}
		if i%2 == 0 {
			resps[i] = Response{Status: StatusOK, Value: []byte("value")}
			hits++
		}
	}
	body, err := AppendBatchResponse(nil, ops, resps)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := ParseBatchResponse(ops, body); err != nil {
			t.Fatal(err)
		}
	})
	if got != 2 {
		t.Errorf("ParseBatchResponse of 8 gets, %d hits: %.0f allocs, want 2 (1 slice + 1 value arena, whatever the hits)", hits, got)
	}

	req, err := AppendBatchRequest(nil, MGetBatch([]string{"k-a", "k-b", "k-c", "k-d", "k-e", "k-f", "k-g", "k-h"}))
	if err != nil {
		t.Fatal(err)
	}
	got = testing.AllocsPerRun(100, func() {
		if _, err := ParseBatchRequest(req); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(1 + 8); got != want {
		t.Errorf("ParseBatchRequest of an 8-key mget: %.0f allocs, want %.0f (1 slice + 1 per key)", got, want)
	}

	// A hostile header buys no memory: the frame claims MaxBatchOps
	// sub-ops and carries none.
	for _, top := range []byte{OpBatch, OpMGet, OpMPut} {
		p := parser{buf: []byte{top, MaxBatchOps >> 8, MaxBatchOps & 0xFF, 0, 0}}
		if _, n, fit := p.batchHeader(); n != MaxBatchOps || fit > 1 {
			t.Errorf("top op %d: a 2-byte payload claiming %d sub-ops presizes for %d", top, n, fit)
		}
	}
}

// TestRecycle is the put-side decision of every frame pool and of the
// handle's value arena, tested directly: sync.Pool's own behaviour
// (victim caches, per-P lists) makes it unobservable through Get.
func TestRecycle(t *testing.T) {
	if got := recycle(make([]byte, 100, maxPooledBuf)); got == nil || len(got) != 0 || cap(got) != maxPooledBuf {
		t.Errorf("a buffer of exactly maxPooledBuf: len %d cap %d, want it kept and emptied", len(got), cap(got))
	}
	if got := recycle(make([]byte, 1, maxPooledBuf+1)); got != nil {
		t.Errorf("a buffer past maxPooledBuf was kept (cap %d)", cap(got))
	}
	if got := recycle[byte](nil); len(got) != 0 {
		t.Errorf("recycle(nil) = %v", got)
	}
	// Scratch slices of any element type are held to the same byte bound.
	if got := recycle(make([]Entry, 1, maxPooledBuf/int(unsafe.Sizeof(Entry{})))); got == nil {
		t.Error("an Entry scratch of exactly maxPooledBuf bytes was dropped")
	}
	if got := recycle(make([]Entry, 1, maxPooledBuf/int(unsafe.Sizeof(Entry{}))+1)); got != nil {
		t.Errorf("an Entry scratch past maxPooledBuf bytes was kept (cap %d)", cap(got))
	}
	var pool sync.Pool
	bp := new([]byte)
	putBuf(&pool, bp, make([]byte, 8, MaxFrame))
	if *bp != nil {
		t.Errorf("putBuf pooled a %d-byte buffer", cap(*bp))
	}
}

// TestExecViewsOnlySubset pins the subset contract a Router's safety
// hangs on: ExecViewsOnly executes the listed sub-requests and no
// others, and an empty list — nil included, which is what a fresh
// connection's scratch[:0] is — executes nothing.
func TestExecViewsOnlySubset(t *testing.T) {
	for _, eng := range Engines {
		t.Run(string(eng), func(t *testing.T) {
			s := New(Options{Engine: eng, Shards: 4})
			defer s.Close()
			h := s.NewHandle(0)
			views := []RequestView{
				{Op: OpPut, Key: []byte("a"), Value: []byte("1")},
				{Op: OpPut, Key: []byte("b"), Value: []byte("2")},
				{Op: OpScan},
			}
			for _, none := range [][]int{nil, {}} {
				resps := h.ExecViewsOnly(views, none)
				if len(resps) != len(views) || h.Len() != 0 {
					t.Fatalf("idxs %#v: %d responses, %d keys stored; want %d and 0", none, len(resps), h.Len(), len(views))
				}
				for i, r := range resps {
					if r.Status != 0 || r.Created || r.Value != nil || r.Entries != nil {
						t.Fatalf("idxs %#v: slot %d came back %+v, want zero", none, i, r)
					}
				}
			}
			resps := h.ExecViewsOnly(views, []int{1})
			if !resps[1].Created || resps[0].Created || h.Len() != 1 {
				t.Fatalf("idxs [1]: %+v, %d keys stored", resps, h.Len())
			}
			if _, ok := h.Get("a"); ok {
				t.Fatal("idxs [1] executed sub-request 0")
			}
			if resps = h.ExecViews(views); !resps[0].Created || resps[1].Created || len(resps[2].Entries) != 2 {
				t.Fatalf("ExecViews: %+v", resps)
			}
		})
	}
}

// allLocal is the Router test double: it owns every key, so every op
// takes the routed entry points and ExecViewsOnly without leaving the
// store package. One double serves one connection (idxs is its scratch).
type allLocal struct{ idxs []int }

func (*allLocal) Route(h *Handle, req RequestView, _ int, out []byte) ([]byte, error) {
	return h.ExecView(req, out)
}

func (a *allLocal) RouteBatch(h *Handle, reqs []RequestView) []Response {
	a.idxs = a.idxs[:0]
	for i := range reqs {
		a.idxs = append(a.idxs, i)
	}
	return h.ExecViewsOnly(reqs, a.idxs)
}

// replay is ServeConn's connection for serving recorded frames from
// memory: requests are read from a byte slice; responses are dropped,
// or kept when keep is set.
type replay struct {
	*bytes.Reader
	keep bool
	out  []byte
}

func (r *replay) Write(p []byte) (int, error) {
	if r.keep {
		r.out = append(r.out, p...)
	}
	return len(p), nil
}

// frame appends body as one length-prefixed frame, tagged when tag != 0.
func frame(dst []byte, tag uint32, body []byte) []byte {
	n := len(body)
	if tag != 0 {
		n += 5
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	if tag != 0 {
		dst = AppendTaggedRequest(dst, tag)
	}
	return append(dst, body...)
}

func mustBatch(t testing.TB, b Batch) []byte {
	t.Helper()
	body, err := AppendBatchRequest(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestBatchServeAllocs is the batch path's allocation gate: ServeConn
// fed recorded batch frames from memory — parse, route, execute, encode
// — allocates nothing per frame on the mutate-in-place engines and no
// more than the copy-on-write bound per put on the optimistic one, with
// and without a Router. Per-connection set-up (handle, buffers, scratch
// growing to the frame mix) is measured out by serving the same cycle
// of frames at two lengths.
func TestBatchServeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	const present, short, long = 64, 4, 24
	val := make([]byte, 64)
	for _, eng := range Engines {
		for _, routed := range []bool{false, true} {
			name := string(eng) + "/direct"
			if routed {
				name = string(eng) + "/routed"
			}
			t.Run(name, func(t *testing.T) {
				s := New(Options{Engine: eng})
				defer s.Close()
				srv := NewServer(s, 1)
				if routed {
					srv.SetRouter(&allLocal{})
				}
				keys := allocKeys(s.NewHandle(0), present, len(val))
				absent := func(i int) string { return fmt.Sprintf("absent-%d", i) }

				// One cycle: an all-hit multi-get, an all-overwrite
				// multi-put, and a mixed batch of hit, miss, overwrite
				// and deletes of keys that are not there — tagged and not.
				var overwrite []Entry
				for _, k := range keys[8:16] {
					overwrite = append(overwrite, Entry{Key: k, Value: val})
				}
				mixed := Batch{Op: OpBatch, Reqs: []Request{
					{Op: OpGet, Key: keys[20]}, {Op: OpGet, Key: absent(0)},
					{Op: OpPut, Key: keys[21], Value: val}, {Op: OpDelete, Key: absent(1)},
					{Op: OpGet, Key: keys[22]}, {Op: OpDelete, Key: absent(2)},
				}}
				var cycle []byte
				frames, puts := 0, 0
				for tag, b := range []Batch{MGetBatch(keys[:8]), MPutBatch(overwrite), mixed} {
					body := mustBatch(t, b)
					cycle = frame(cycle, 0, body)
					cycle = frame(cycle, uint32(tag+1), body)
					frames += 2
					for _, r := range b.Reqs {
						if r.Op == OpPut {
							puts += 2
						}
					}
				}
				serve := func(cycles int) float64 {
					stream := bytes.Repeat(cycle, cycles)
					return testing.AllocsPerRun(5, func() {
						if err := srv.ServeConn(&replay{Reader: bytes.NewReader(stream)}); err != nil {
							t.Fatal(err)
						}
					})
				}
				perCycle := (serve(long) - serve(short)) / (long - short)
				bound := 0.0
				if eng == EngineOptimistic {
					bound = float64(puts * optPutAllocBound)
				}
				if perCycle > bound {
					t.Errorf("%.2f allocs per cycle of %d batch frames (%d puts), want <= %.0f",
						perCycle, frames, puts, bound)
				}
			})
		}
	}
}

// referenceServe answers one request frame the way the owning path
// did: ParseBatchRequest → Handle.ExecBatch → AppendBatchResponse, with
// the frame-bound policy spelled out independently of the server's
// encoder — 64 bytes held back for every sub-response still to come,
// and a sub-response that cannot be encoded or would overrun what is
// left replaced by MsgBatchOverflow. ok is false for a rejected frame.
func referenceServe(t *testing.T, h *Handle, body []byte) (resp []byte, ok bool) {
	t.Helper()
	inner := body
	if len(body) > 0 && body[0] == OpTagged {
		tag, rest, err := ParseTag(body)
		if err != nil {
			t.Fatal(err)
		}
		inner, resp = rest, binary.BigEndian.AppendUint32(resp, tag)
	}
	b, err := ParseBatchRequest(inner)
	if err != nil {
		resp, _ = AppendResponse(resp, 0, Response{Status: StatusError, Msg: err.Error()})
		return resp, false
	}
	ops, resps := b.SubOps(), h.ExecBatch(b.Reqs)
	if plain, err := AppendBatchResponse(resp, ops, resps); err == nil && len(plain) <= MaxFrame-64*len(ops) {
		return plain, true
	}
	resp = binary.BigEndian.AppendUint16(resp, uint16(len(resps)))
	for i, r := range resps {
		enc, err := AppendResponse(resp, ops[i], r)
		if err != nil || len(enc) > MaxFrame-64*(len(resps)-1-i) {
			enc, _ = AppendResponse(resp, ops[i], Response{Status: StatusError, Msg: MsgBatchOverflow})
		}
		resp = enc
	}
	return resp, true
}

// TestBatchServeEquivalence serves one request stream twice — through
// ServeConn's zero-copy path and through referenceServe on an identical
// store — and requires the same response bytes, frame for frame: mixed
// point ops, scans inside a batch, a value past MaxValueLen that only a
// direct handle could have stored, a multi-get whose values overflow
// the frame, and last a bad sub-opcode, which both must reject alike.
func TestBatchServeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("stores several MB of values per engine")
	}
	huge := make([]byte, MaxValueLen+1)
	big := bytes.Repeat([]byte{0xAB}, MaxValueLen)
	var bigKeys []string
	for i := 0; i < 5; i++ { // 5 MiB of values against a 4 MiB frame
		bigKeys = append(bigKeys, fmt.Sprintf("big-%d", i))
	}
	bodies := [][]byte{
		mustBatch(t, MPutBatch([]Entry{{Key: "a1", Value: []byte("x")}, {Key: "a2", Value: nil}, {Key: "b1", Value: []byte("yy")}})),
		mustBatch(t, MGetBatch([]string{"a1", "nope", "a2", "b1", "a1"})),
		mustBatch(t, Batch{Op: OpBatch, Reqs: []Request{
			{Op: OpPut, Key: "a3", Value: []byte("zzz")}, {Op: OpGet, Key: "a3"},
			{Op: OpScan, Key: "a", Limit: 2}, {Op: OpDelete, Key: "a1"}, {Op: OpGet, Key: "a1"},
			{Op: OpScan, Key: "a", Limit: 0}, {Op: OpDelete, Key: "a1"}, {Op: OpPut, Key: "a1", Value: []byte("again")},
		}}),
		mustBatch(t, Batch{Op: OpBatch}),
		mustBatch(t, Batch{Op: OpBatch, Reqs: []Request{{Op: OpGet, Key: "a1"}, {Op: OpGet, Key: "huge"}, {Op: OpGet, Key: "b1"}}}),
		mustBatch(t, MGetBatch(append(append([]string{"a1"}, bigKeys...), "b1"))),
		{OpBatch, 0, 2, OpGet, 0, 1, 'k', 0xEE, 0, 0},
	}
	var stream []byte
	for i, body := range bodies {
		stream = frame(stream, uint32(i%2)*uint32(100+i), body) // every other frame tagged
	}
	for _, eng := range Engines {
		for _, routed := range []bool{false, true} {
			name := string(eng) + "/direct"
			if routed {
				name = string(eng) + "/routed"
			}
			t.Run(name, func(t *testing.T) {
				build := func() *Store {
					s := New(Options{Shards: 4, Buckets: 8, Engine: eng})
					h := s.NewHandle(0)
					h.Put("huge", huge)
					for _, k := range bigKeys {
						h.Put(k, big)
					}
					return s
				}
				served, ref := build(), build()
				defer served.Close()
				defer ref.Close()
				srv := NewServer(served, 1)
				if routed {
					srv.SetRouter(&allLocal{})
				}
				conn := &replay{Reader: bytes.NewReader(stream), keep: true}
				if err := srv.ServeConn(conn); err == nil {
					t.Fatal("ServeConn survived the bad sub-opcode")
				}
				got := bytes.NewReader(conn.out)
				h := ref.NewHandle(0)
				for i, body := range bodies {
					tagged := frame(nil, uint32(i%2)*uint32(100+i), body)[4:]
					want, ok := referenceServe(t, h, tagged)
					have, err := ReadFrame(got, nil)
					if err != nil {
						t.Fatalf("frame %d: no response: %v", i, err)
					}
					if !bytes.Equal(have, want) {
						t.Fatalf("frame %d: served %d bytes, reference %d bytes; first difference at %d",
							i, len(have), len(want), firstDiff(have, want))
					}
					if ok == (i == len(bodies)-1) {
						t.Fatalf("frame %d: reference accepted = %v", i, ok)
					}
					// Frames 4 and 5 are the oversized value and the
					// overflowing multi-get: both must really degrade.
					if degraded := bytes.Contains(want, []byte(MsgBatchOverflow)); degraded != (i == 4 || i == 5) {
						t.Fatalf("frame %d: degraded = %v", i, degraded)
					}
				}
				if _, err := ReadFrame(got, nil); err != io.EOF {
					t.Fatalf("responses after the reject: %v", err)
				}
			})
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
