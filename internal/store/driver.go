package store

import "ssync/internal/workload"

// Driver wraps a connection into the shape the workload engine consumes
// (workload.PipeConn): the same methods, except Scan reports only the
// entry count. Issue is the Core's, whatever the connection kind: a
// LocalConn or Client resolves each group at Issue time (lock
// amortization without overlap), an AsyncClient or cluster.Client keeps
// up to its window of groups in flight (true pipelining).
type Driver struct {
	C BatchConn
}

// Get forwards to the wrapped connection.
func (d Driver) Get(key string) ([]byte, bool, error) { return d.C.Get(key) }

// Put forwards to the wrapped connection.
func (d Driver) Put(key string, value []byte) (bool, error) { return d.C.Put(key, value) }

// Delete forwards to the wrapped connection.
func (d Driver) Delete(key string) (bool, error) { return d.C.Delete(key) }

// Scan forwards to the wrapped connection and reports the entry count.
func (d Driver) Scan(prefix string, limit int) (int, error) {
	entries, err := d.C.Scan(prefix, limit)
	return len(entries), err
}

// Issue forwards to the wrapped connection.
func (d Driver) Issue(ops []workload.Op) workload.Pending { return d.C.Issue(ops) }

// Close forwards to the wrapped connection.
func (d Driver) Close() error { return d.C.Close() }

var _ workload.PipeConn = Driver{}
