package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// spanName indexes spanNames; a span stores the index, not the string.
type spanName uint8

const (
	spanTrace spanName = iota // the traced run; the one root
	spanPhase                 // one replayed public call or measurement phase
	spanGroup                 // one op group, issue to settled
	spanGen                   // drawing and rendering the group's ops
	spanIssue                 // inside PipeConn.Issue
	spanWait                  // inside Pending.Wait
)

var spanNames = [...]string{"trace", "phase", "group", "gen", "issue", "wait"}

// spanRoot is the parent of spans opened directly under the traced run.
const spanRoot int32 = 0

// span is one timed interval recorded from the benchmark's side of a
// layer boundary. Spans of one op group share its Group id.
type span struct {
	Name       spanName
	Start, End int64 // ns since the log's epoch
	Parent     int32 // index of the span that caused this one; -1 for the root
	Group      int32 // op-group ordinal; -1 outside a group
}

// spanLog keeps spans in memory; nothing is written until the run ends. A
// nil *spanLog records nothing, which is the untraced run. One log belongs
// to one goroutine.
type spanLog struct {
	epoch  time.Time
	spans  []span
	labels map[int32]string // phase spans carry a label
}

func newSpanLog(capacity int) *spanLog {
	l := &spanLog{epoch: time.Now(), spans: make([]span, 0, capacity+64), labels: map[int32]string{}}
	l.spans = append(l.spans, span{Name: spanTrace, Parent: -1, Group: -1})
	return l
}

func (l *spanLog) begin(name spanName, parent, group int32) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Start: int64(time.Since(l.epoch)), Parent: parent, Group: group})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) end(i int32) {
	if l == nil {
		return
	}
	l.spans[i].End = int64(time.Since(l.epoch))
}

// phase times fn as one labelled span under the root and returns its
// duration.
func (l *spanLog) phase(label string, fn func()) time.Duration {
	i := l.begin(spanPhase, spanRoot, -1)
	start := time.Now()
	fn()
	d := time.Since(start)
	l.end(i)
	if l != nil {
		l.labels[i] = label
	}
	return d
}

// selfTime sums, over the spans named name, each span's duration minus
// the part its child spans cover.
func (l *spanLog) selfTime(name spanName) time.Duration {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans[1:] {
		child[s.Parent] += s.End - s.Start
	}
	var sum int64
	for i, s := range l.spans {
		if s.Name == name {
			sum += s.End - s.Start - child[i]
		}
	}
	return time.Duration(sum)
}

// write stores the log as JSON lines under dir.
func (l *spanLog) write(dir, workload string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range l.spans {
		rec := struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Label  string `json:"label,omitempty"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int32  `json:"parent"`
			Group  int32  `json:"group"`
		}{i, spanNames[s.Name], l.labels[int32(i)], s.Start, s.End, s.Parent, s.Group}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return w.Flush()
}
