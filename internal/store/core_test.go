package store

import (
	"errors"
	"testing"
	"unsafe"

	"ssync/internal/workload"
)

// TestIssueErrorCountsAnswered pins the one rule workload.Pending.Wait
// states for a failed group, on whatever transport: the Outcome counts
// the ops answered before the error and never the one that failed. The
// four clients this core replaced disagreed (Ops: 1 for a failed scalar
// op, a zero Outcome for a failed batch, a partial total when routed).
func TestIssueErrorCountsAnswered(t *testing.T) {
	ok := ResponseView{Status: StatusOK, Value: []byte("v")}
	refused := ResponseView{Status: StatusError, Msg: []byte("refused")}
	broken := errors.New("transport broke")
	gets := []workload.Op{{Kind: workload.KindGet, Key: "a"}, {Kind: workload.KindGet, Key: "b"},
		{Kind: workload.KindGet, Key: "c"}, {Kind: workload.KindGet, Key: "d"}}

	s := New(Options{})
	defer s.Close()
	closed := NewServer(s, 1).PipeAsyncClient(4)
	closed.Close()

	for _, tc := range []struct {
		name  string
		start func(*Flight, Request, Batch) Reply
		ops   []workload.Op
		want  workload.Outcome
	}{
		{"one op refused", func(*Flight, Request, Batch) Reply { return Reply{Views: []ResponseView{refused}} }, gets[:1], workload.Outcome{}},
		{"one op, transport error", func(*Flight, Request, Batch) Reply { return Reply{Err: broken} }, gets[:1], workload.Outcome{}},
		{"group, transport error", func(*Flight, Request, Batch) Reply { return Reply{Err: broken} }, gets, workload.Outcome{}},
		{"group, third op refused", func(*Flight, Request, Batch) Reply {
			return Reply{Views: []ResponseView{ok, {Status: StatusNotFound}, refused, ok}}
		}, gets, workload.Outcome{Ops: 2, Hits: 1, Misses: 1}},
		{"one op in flight on a closed connection", closed.Start, gets[:1], workload.Outcome{}},
		{"group in flight on a closed connection", closed.Start, gets, workload.Outcome{}},
	} {
		core := NewCore(tc.start)
		out, err := core.Issue(tc.ops).Wait()
		if err == nil || out != tc.want {
			t.Errorf("%s: Wait = %+v, %v; want %+v and an error", tc.name, out, err, tc.want)
		}
	}
}

// TestPendingSize keeps the one Pending within 64 bytes: the tally, the
// error and the pointer to its group's recycled state. What else a group
// needs — its requests and its flight — hangs off that pointer instead
// of widening the pending.
func TestPendingSize(t *testing.T) {
	if size := unsafe.Sizeof(pending{}); size > 64 {
		t.Fatalf("pending is %d bytes, want <= 64: it carries a tally, an error and one pointer, nothing else", size)
	}
}
