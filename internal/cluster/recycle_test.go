package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ssync/internal/store"
	"ssync/internal/workload"
	"ssync/internal/xrand"
)

// TestIssueRecycle holds Issue's recycled group state to its ownership
// rule on every row: the Pending owns the state from Issue to the end of
// a successful Wait, which puts it back, and a failed group's state is
// never handed out again. A Pending is its group's state, so the check
// is white-box by identity: a state handed out again is a Pending that
// Issue returns again.
func TestIssueRecycle(t *testing.T) {
	const window = 8
	for _, tr := range transports {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			c := tr.open(t, store.Options{}).dial(0, window)
			defer c.Close()
			recycleExact(t, c, window)
			if tr.mute != nil {
				recycleNeverFailed(t, tr.mute(t, window))
			}
		})
	}
}

// recyclePop is the population recycleExact keeps fixed: its puts
// overwrite these keys or create fresh ones outside every scan's prefix,
// and its deletes miss, so every group's Outcome is known when it is
// issued.
const recyclePop = 64

// recycleExact issues groups of every shape on c — one op to a dozen,
// gets that hit and miss, puts that create and overwrite, deletes that
// miss, scans alone and amid point ops — keeping window groups in flight
// while three other goroutines wait on them, so a state is put back on
// one goroutine and taken again on another while its neighbours are in
// flight. Each outcome must be exactly what the population says: a
// recycled frame that kept its positions, its fan or its future's
// state, or requests that kept another group's keys, miscounts.
func recycleExact(t *testing.T, c store.BatchConn, window int) {
	t.Helper()
	for i := 0; i < recyclePop; i++ {
		if _, err := c.Put(workload.Key(uint64(i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	type flight struct {
		p    workload.Pending
		want workload.Outcome
		n    int
	}
	flights, slots := make(chan flight), make(chan struct{}, window)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range flights {
				got, err := f.p.Wait()
				<-slots
				if err != nil || got != f.want {
					t.Errorf("group %d: Wait = %+v, %v; want %+v", f.n, got, err, f.want)
				}
			}
		}()
	}
	rng := xrand.New(0x5ec7c1e)
	for n := 0; n < 400; n++ {
		ops, want := recycleGroup(rng, n)
		slots <- struct{}{}
		flights <- flight{p: c.Issue(ops), want: want, n: n}
	}
	close(flights)
	wg.Wait()
}

// recycleGroup draws group n and the Outcome it must have.
func recycleGroup(rng *xrand.Rand, n int) ([]workload.Op, workload.Outcome) {
	ops := make([]workload.Op, 1+rng.Intn(12))
	want := workload.Outcome{Ops: uint64(len(ops))}
	for j := range ops {
		key := workload.Key(uint64(rng.Intn(recyclePop)))
		switch rng.Intn(6) {
		case 0:
			ops[j] = workload.Op{Kind: workload.KindGet, Key: key}
			want.Hits++
		case 1:
			ops[j] = workload.Op{Kind: workload.KindGet, Key: "absent-" + key}
			want.Misses++
		case 2:
			ops[j] = workload.Op{Kind: workload.KindPut, Key: key, Value: []byte("w")}
		case 3:
			ops[j] = workload.Op{Kind: workload.KindPut, Key: fmt.Sprintf("fresh-%d-%d", n, j), Value: []byte("f")}
			want.Created++
		case 4:
			ops[j] = workload.Op{Kind: workload.KindDelete, Key: "absent-" + key}
		default:
			// "key-0000000" holds keys 0-9, "key-000000" the whole
			// population.
			prefix, limit := key[:len(key)-1-rng.Intn(2)], 1+rng.Intn(12)
			ops[j] = workload.Op{Kind: workload.KindScan, Key: prefix, Limit: limit}
			matches := 0
			for i := 0; i < recyclePop; i++ {
				if strings.HasPrefix(workload.Key(uint64(i)), prefix) {
					matches++
				}
			}
			want.Scanned += uint64(min(limit, matches))
		}
	}
	return ops, want
}

// recycleNeverFailed puts groups in flight on c, whose peers never
// answer, and closes c while other goroutines wait on them: every Wait
// must fail, and the state of a failed group — whose later frames
// shutdown may still be failing — must not be put back. Each waiter,
// straight after its Wait, issues a group on a connection of its own on
// the same goroutine, where the pool hands back what was just put: that
// group must not be the failed one.
func recycleNeverFailed(t *testing.T, c store.BatchConn) {
	t.Helper()
	probes := store.New(store.Options{})
	defer probes.Close()
	// Two point ops and a scan: a frame on every member of a routed row,
	// and two point shares on one of three nodes at most, so four groups
	// stay within the window of eight on every connection.
	var pendings []workload.Pending
	for i := 0; i < 4; i++ {
		pendings = append(pendings, c.Issue([]workload.Op{
			{Kind: workload.KindGet, Key: workload.Key(uint64(2 * i))},
			{Kind: workload.KindScan, Key: "key-", Limit: 4},
			{Kind: workload.KindPut, Key: workload.Key(uint64(2*i + 1)), Value: []byte("v")},
		}))
	}
	errs := make([]error, len(pendings))
	again := make([]bool, len(pendings))
	done := make(chan struct{}, len(pendings)+1)
	for i, p := range pendings {
		i, p := i, p
		go func() {
			defer func() { done <- struct{}{} }()
			_, errs[i] = p.Wait()
			probe := probes.NewLocalConn(0)
			q := probe.Issue([]workload.Op{{Kind: workload.KindGet, Key: "probe"}})
			again[i] = q == p
			if _, err := q.Wait(); err != nil {
				t.Errorf("probe after failed group %d: %v", i, err)
			}
		}()
	}
	go func() { c.Close(); done <- struct{}{} }()
	timeout := time.After(10 * time.Second)
	for i := 0; i <= len(pendings); i++ {
		select {
		case <-done:
		case <-timeout:
			t.Fatal("Close or a Wait hangs with groups in flight")
		}
	}
	for i := range pendings {
		if !errors.Is(errs[i], store.ErrClientClosed) {
			t.Errorf("group %d: Wait = %v, want ErrClientClosed", i, errs[i])
		}
		if again[i] {
			t.Errorf("group %d failed, yet its state was handed out again", i)
		}
	}
}
