package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"ssync/internal/store"
	"ssync/internal/workload"
)

// model is the reference every connection kind is held to: a plain map
// executing a request group the way a store does — point ops in order,
// then the scans, which read the state after them.
type model map[string][]byte

func (m model) exec(reqs []store.Request) []store.Response {
	resps := make([]store.Response, len(reqs))
	for i, r := range reqs {
		old, present := m[r.Key]
		switch r.Op {
		case store.OpGet:
			resps[i] = store.Response{Status: store.StatusNotFound}
			if present {
				resps[i] = store.Response{Status: store.StatusOK, Value: old}
			}
		case store.OpPut:
			m[r.Key] = r.Value
			resps[i] = store.Response{Status: store.StatusOK, Created: !present}
		case store.OpDelete:
			delete(m, r.Key)
			resps[i] = store.Response{Status: store.StatusNotFound}
			if present {
				resps[i] = store.Response{Status: store.StatusOK}
			}
		}
	}
	for i, r := range reqs {
		if r.Op != store.OpScan {
			continue
		}
		var entries []store.Entry
		for k, v := range m {
			if strings.HasPrefix(k, r.Key) {
				entries = append(entries, store.Entry{Key: k, Value: v})
			}
		}
		sort.Slice(entries, func(a, b int) bool { return entries[a].Key < entries[b].Key })
		if r.Limit > 0 && len(entries) > int(r.Limit) {
			entries = entries[:r.Limit]
		}
		resps[i] = store.Response{Status: store.StatusOK, Entries: entries}
	}
	return resps
}

// step is one row of the conformance script: the method to call and the
// requests it carries. The scalar methods take reqs[0]; mget and mput
// take the keys and entries of reqs; issue takes reqs as an op group. A
// step with refused set must fail with that error and change nothing.
type step struct {
	name, via string
	reqs      []store.Request
	refused   error
	long      bool // moves several MB; skipped under -short
}

func get(key string) store.Request { return store.Request{Op: store.OpGet, Key: key} }
func del(key string) store.Request { return store.Request{Op: store.OpDelete, Key: key} }
func put(key, val string) store.Request {
	return store.Request{Op: store.OpPut, Key: key, Value: []byte(val)}
}
func scan(prefix string, limit uint32) store.Request {
	return store.Request{Op: store.OpScan, Key: prefix, Limit: limit}
}

// span builds one request per key index in [lo, hi).
func span(lo, hi uint64, mk func(key string) store.Request) []store.Request {
	reqs := make([]store.Request, 0, hi-lo)
	for i := lo; i < hi; i++ {
		reqs = append(reqs, mk(workload.Key(i)))
	}
	return reqs
}

func putSelf(key string) store.Request { return put(key, key) }

// badOp is a sub-request no transport carries: its opcode is none of
// get, put, delete and scan, and Issue turns it into an op of a kind the
// workload does not have.
func badOp(key string) store.Request { return store.Request{Op: 0x7f, Key: key} }

var (
	bigValue  = string(bytes.Repeat([]byte{0xCD}, store.MaxValueLen))
	value256K = string(bytes.Repeat([]byte{0xAB}, 256<<10))
)

func putBig(key string) store.Request { return put("huge-"+key, bigValue) }
func getBig(key string) store.Request { return get("huge-" + key) }

// putGetPairs puts and then gets each of n fresh keys, pair by pair.
func putGetPairs(n int) []store.Request {
	var reqs []store.Request
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("order-%02d", i)
		reqs = append(reqs, put(key, "v"+key), get(key))
	}
	return reqs
}

var conformanceScript = []step{
	{name: "put creates", via: "put", reqs: []store.Request{put("a", "1")}},
	{name: "put overwrites", via: "put", reqs: []store.Request{put("a", "2")}},
	{name: "get present", via: "get", reqs: []store.Request{get("a")}},
	{name: "get absent", via: "get", reqs: []store.Request{get("nope")}},
	{name: "put empty value", via: "put", reqs: []store.Request{put("empty", "")}},
	{name: "get empty value", via: "get", reqs: []store.Request{get("empty")}},
	{name: "mget empty vs absent", via: "mget", reqs: []store.Request{get("empty"), get("nope"), get("a")}},
	{name: "put empty key", via: "put", reqs: []store.Request{put("", "k")}},
	{name: "get empty key", via: "get", reqs: []store.Request{get("")}},
	{name: "put 256 KiB value", via: "put", reqs: []store.Request{put("256k", value256K)}},
	{name: "get 256 KiB value", via: "get", reqs: []store.Request{get("256k")}},
	// Same-key sub-ops apply in batch order — on a routed row, same owner,
	// same frame, server-side batch order — so each get sees its put.
	{name: "execbatch 60 put-get pairs in order", via: "execbatch", reqs: putGetPairs(60)},
	{name: "delete present", via: "delete", reqs: []store.Request{del("a")}},
	{name: "delete absent", via: "delete", reqs: []store.Request{del("a")}},
	{name: "mput splits per owner", via: "mput", reqs: span(0, 150, putSelf)},
	{name: "mput again creates none", via: "mput", reqs: span(0, 2, putSelf)},
	{name: "mget in caller order, tail absent", via: "mget", reqs: span(0, 160, get)},
	{name: "scan unlimited", via: "scan", reqs: []store.Request{scan("key-000001", 0)}},
	{name: "scan limit 7", via: "scan", reqs: []store.Request{scan("key-000001", 7)}},
	{name: "scan limit past the end", via: "scan", reqs: []store.Request{scan("key-000001", 90)}},
	{name: "scan nothing", via: "scan", reqs: []store.Request{scan("zzz", 0)}},
	{name: "execbatch mixed, same key in order", via: "execbatch", reqs: []store.Request{
		get(workload.Key(3)), put("d", "4"), del(workload.Key(5)), scan("key-0000000", 10), get(workload.Key(5)),
	}},
	// An empty group is still a batch: one batch frame with no sub-ops (none
	// at all when routed), decoded as a batch and answered with nothing.
	{name: "execbatch empty", via: "execbatch"},
	{name: "mget empty", via: "mget"},
	{name: "mput empty", via: "mput"},
	{name: "issue empty", via: "issue"},
	{name: "issue one get", via: "issue", reqs: []store.Request{get(workload.Key(7))}},
	{name: "issue one miss", via: "issue", reqs: []store.Request{get(workload.Key(5))}},
	{name: "issue one put", via: "issue", reqs: []store.Request{put("e", "5")}},
	{name: "issue one scan", via: "issue", reqs: []store.Request{scan("key-00000001", 4)}},
	{name: "issue one scan trimmed to its limit", via: "issue", reqs: []store.Request{scan("key-000001", 7)}},
	{name: "issue mixed group with a scan", via: "issue", reqs: []store.Request{
		get(workload.Key(8)), put("f", "6"), scan("key-0000001", 12), del(workload.Key(9)), get(workload.Key(9)),
		put(workload.Key(5), "back"), get("empty"),
	}},
	{name: "issue group of gets", via: "issue", reqs: span(0, 16, get)},
	// A batch one transport refuses, every transport refuses, whole and
	// before anything runs: the put beside the bad op never lands, as the
	// get after the refusals checks.
	{name: "execbatch with a bad sub-op refused whole", via: "execbatch",
		reqs: []store.Request{put("refused", "x"), badOp("refused")}, refused: store.ErrBatchOp},
	{name: "issue unknown kind refused", via: "issue", reqs: []store.Request{badOp("refused")}, refused: store.ErrBadOp},
	{name: "issue group with an unknown kind refused whole", via: "issue",
		reqs: []store.Request{put("refused", "x"), badOp("refused")}, refused: store.ErrBatchOp},
	{name: "refused ops changed nothing", via: "get", reqs: []store.Request{get("refused")}},
	{name: "mput past MaxBatchOps chunks", via: "mput", reqs: span(1000, 1000+store.MaxBatchOps+10, putSelf)},
	{name: "mget past MaxBatchOps chunks", via: "mget", reqs: span(995, 1000+store.MaxBatchOps+15, get)},
	{name: "mput past one frame chunks", via: "mput", reqs: span(0, 6, putBig), long: true},
	{name: "mget past one frame refetches", via: "mget", reqs: span(0, 6, getBig), long: true},
	{name: "issue past one frame refetches", via: "issue", reqs: span(0, 6, getBig), long: true},
}

// TestConnConformance runs one script of operations over every row of
// the transport table and holds each answer to the map model: the seven
// blocking methods, Issue of one op and of mixed groups, the empty key, an
// empty value and a 256 KiB one, a routed batch's same-key pairs in
// order, multi-ops past MaxBatchOps (which must chunk) and past one
// response frame (which must refetch the degraded tail). All of that
// surface is store.Core's, written once; what differs per row is only the
// transport underneath it.
func TestConnConformance(t *testing.T) {
	t.Parallel()
	for _, tr := range transports {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			t.Parallel()
			c := tr.open(t, store.Options{Shards: 4}).dial(0, 8)
			defer c.Close()
			m := model{}
			for _, st := range conformanceScript {
				if st.long && testing.Short() {
					continue
				}
				// The model carries state from step to step: a failure ends the row.
				if !t.Run(st.name, func(t *testing.T) {
					if err := st.run(c, m); err != nil {
						t.Fatal(err)
					}
				}) {
					return
				}
			}
		})
	}
}

// run plays the step on c and on the model and compares the answers. A
// refused step is not played on the model.
func (st step) run(c store.BatchConn, m model) error {
	var want []store.Response
	if st.refused == nil {
		want = m.exec(st.reqs)
	}
	got := make([]store.Response, len(st.reqs))
	var err error
	var ok bool // found or existed
	switch st.via {
	case "get":
		got[0].Value, ok, err = c.Get(st.reqs[0].Key)
		got[0].Status = status(ok)
	case "put":
		got[0].Created, err = c.Put(st.reqs[0].Key, st.reqs[0].Value)
	case "delete":
		ok, err = c.Delete(st.reqs[0].Key)
		got[0].Status = status(ok)
	case "scan":
		got[0].Entries, err = c.Scan(st.reqs[0].Key, int(st.reqs[0].Limit))
	case "execbatch":
		got, err = c.ExecBatch(st.reqs)
	case "mget":
		keys := make([]string, len(st.reqs))
		for i, r := range st.reqs {
			keys[i] = r.Key
		}
		var vals [][]byte
		if vals, err = c.MGet(keys); err != nil || len(vals) != len(keys) {
			return fmt.Errorf("MGet returned %d values for %d keys, err %v", len(vals), len(keys), err)
		}
		for i, v := range vals {
			// nil says absent and nothing else does: a present empty
			// value is a non-nil zero-length slice.
			got[i] = store.Response{Status: status(v != nil), Value: v}
		}
	case "mput":
		entries := make([]store.Entry, len(st.reqs))
		wantCreated := 0
		for i, r := range st.reqs {
			entries[i] = store.Entry{Key: r.Key, Value: r.Value}
			if want[i].Created {
				wantCreated++
			}
		}
		created, err := c.MPut(entries)
		if err != nil || created != wantCreated {
			return fmt.Errorf("MPut created %d, want %d, err %v", created, wantCreated, err)
		}
		return nil
	case "issue":
		ops := make([]workload.Op, len(st.reqs))
		for i, r := range st.reqs {
			ops[i] = workloadOp(r)
		}
		var out workload.Outcome
		if out, err = (store.Driver{C: c}).Issue(ops).Wait(); err != nil || st.refused != nil {
			break
		}
		if wantOut := outcome(st.reqs, want); out != wantOut {
			return fmt.Errorf("Issue = %+v; want %+v", out, wantOut)
		}
		return nil
	}
	if st.refused != nil {
		if !errors.Is(err, st.refused) {
			return fmt.Errorf("err = %v, want %v", err, st.refused)
		}
		return nil
	}
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d responses for %d requests", len(got), len(want))
	}
	for i := range want {
		if err := sameResponse(st.reqs[i].Op, got[i], want[i]); err != nil {
			return fmt.Errorf("response %d (op %d %q): %v", i, st.reqs[i].Op, st.reqs[i].Key, err)
		}
	}
	return nil
}

// workloadOp is the workload op Issue lowers to r: an opcode outside the
// four scalar ones becomes a kind the workload does not have.
func workloadOp(r store.Request) workload.Op {
	switch r.Op {
	case store.OpGet:
		return workload.Op{Kind: workload.KindGet, Key: r.Key}
	case store.OpPut:
		return workload.Op{Kind: workload.KindPut, Key: r.Key, Value: r.Value}
	case store.OpDelete:
		return workload.Op{Kind: workload.KindDelete, Key: r.Key}
	case store.OpScan:
		return workload.Op{Kind: workload.KindScan, Key: r.Key, Limit: int(r.Limit)}
	}
	return workload.Op{Kind: 99, Key: r.Key}
}

// outcome is the tally Issue must report for reqs, given the model's
// answers.
func outcome(reqs []store.Request, want []store.Response) workload.Outcome {
	out := workload.Outcome{Ops: uint64(len(reqs))}
	for i, r := range reqs {
		switch r.Op {
		case store.OpGet:
			if want[i].Status == store.StatusOK {
				out.Hits++
			} else {
				out.Misses++
			}
		case store.OpPut:
			if want[i].Created {
				out.Created++
			}
		case store.OpScan:
			out.Scanned += uint64(len(want[i].Entries))
		}
	}
	return out
}

func status(ok bool) byte {
	if ok {
		return store.StatusOK
	}
	return store.StatusNotFound
}

// sameResponse compares what op's response carries: a scalar method
// fills in only that much of got.
func sameResponse(op byte, got, want store.Response) error {
	switch op {
	case store.OpGet:
		if got.Status != want.Status || !bytes.Equal(got.Value, want.Value) {
			return fmt.Errorf("get = status %d, %d bytes; want status %d, %d bytes", got.Status, len(got.Value), want.Status, len(want.Value))
		}
	case store.OpPut:
		if got.Created != want.Created {
			return fmt.Errorf("put created = %v, want %v", got.Created, want.Created)
		}
	case store.OpDelete:
		if got.Status != want.Status {
			return fmt.Errorf("delete status = %d, want %d", got.Status, want.Status)
		}
	case store.OpScan:
		if len(got.Entries) != len(want.Entries) {
			return fmt.Errorf("scan returned %d entries, want %d", len(got.Entries), len(want.Entries))
		}
		for i, e := range got.Entries {
			if e.Key != want.Entries[i].Key || !bytes.Equal(e.Value, want.Entries[i].Value) {
				return fmt.Errorf("scan entry %d is %q, want %q (merge order broken)", i, e.Key, want.Entries[i].Key)
			}
		}
	}
	return nil
}
