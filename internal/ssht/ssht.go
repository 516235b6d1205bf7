// Package ssht is the native Go implementation of the paper's ssht: a
// cache-conscious concurrent hash table with pluggable synchronization.
// It exports the paper's three operations — put, get and remove — over
// 64-bit keys and fixed-size values, with one lock per bucket (any
// libslock algorithm) or, alternatively, a message-passing mode where
// server goroutines own bucket ranges and clients ship operations to them
// (package sshtmp in this directory's sibling file).
//
// Buckets store keys packed together, separate from the values, so a miss
// scans only key words (the paper's "place the data as efficiently as
// possible in the caches ... allow for efficient prefetching and avoid
// false sharing").
package ssht

import (
	"fmt"

	"ssync/internal/hashkit"
	"ssync/internal/locks"
)

// ValueWords is the payload size in 8-byte words. 40 bytes keeps one
// operation (op, key, value) within a single libssmp cache-line message;
// the paper's evaluation uses 64-byte payloads, which the simulator-side
// reproduction (internal/harness's ssht experiments) models exactly.
const ValueWords = 5

// Value is one stored payload.
type Value [ValueWords]uint64

// segCap is the number of entries per bucket segment; segments chain when
// a bucket overflows.
type segment struct {
	keys [segCap]uint64
	used [segCap]bool
	vals [segCap]Value
	next *segment
}

const segCap = 6

// Table is the lock-based hash table.
type Table struct {
	nBuckets uint64
	buckets  []segment
	lockAlg  locks.Algorithm
	locks    []locks.Lock
}

// Options configures a Table.
type Options struct {
	// Buckets is the bucket count (the paper evaluates 12 and 512).
	Buckets int
	// Lock selects the per-bucket lock algorithm. Default TICKET.
	Lock locks.Algorithm
	// MaxThreads is forwarded to ARRAY locks.
	MaxThreads int
}

// New creates a table.
func New(opt Options) *Table {
	if opt.Buckets <= 0 {
		opt.Buckets = 512
	}
	if opt.Lock == "" {
		opt.Lock = locks.TICKET
	}
	t := &Table{
		nBuckets: uint64(opt.Buckets),
		buckets:  make([]segment, opt.Buckets),
		lockAlg:  opt.Lock,
		locks:    make([]locks.Lock, opt.Buckets),
	}
	for i := range t.locks {
		t.locks[i] = locks.New(opt.Lock, locks.Options{MaxThreads: opt.MaxThreads})
	}
	return t
}

// Handle is a per-goroutine accessor carrying the per-bucket lock tokens.
// Handles must not be shared between goroutines.
type Handle struct {
	t    *Table
	toks []*locks.Token
	node int
}

// NewHandle creates an accessor; node is the NUMA hint for hierarchical
// locks.
func (t *Table) NewHandle(node int) *Handle {
	return &Handle{t: t, toks: make([]*locks.Token, t.nBuckets), node: node}
}

func (h *Handle) tok(b uint64) *locks.Token {
	if h.toks[b] == nil {
		h.toks[b] = h.t.locks[b].NewToken(h.node)
	}
	return h.toks[b]
}

// bucketOf hashes a key to its bucket (Fibonacci hashing, like the home
// tiles of the Tilera model).
func (t *Table) bucketOf(key uint64) uint64 {
	return hashkit.Bucket(key, t.nBuckets)
}

// Get returns the value stored under key.
func (h *Handle) Get(key uint64) (Value, bool) {
	b := h.t.bucketOf(key)
	tok := h.tok(b)
	h.t.locks[b].Acquire(tok)
	defer h.t.locks[b].Release(tok)
	for s := &h.t.buckets[b]; s != nil; s = s.next {
		for i := 0; i < segCap; i++ {
			if s.used[i] && s.keys[i] == key {
				return s.vals[i], true
			}
		}
	}
	return Value{}, false
}

// Put inserts or replaces the value under key; it reports whether the key
// was newly inserted.
func (h *Handle) Put(key uint64, v Value) bool {
	b := h.t.bucketOf(key)
	tok := h.tok(b)
	h.t.locks[b].Acquire(tok)
	defer h.t.locks[b].Release(tok)
	var freeSeg *segment
	freeIdx := -1
	last := (*segment)(nil)
	for s := &h.t.buckets[b]; s != nil; s = s.next {
		for i := 0; i < segCap; i++ {
			if s.used[i] {
				if s.keys[i] == key {
					s.vals[i] = v
					return false
				}
			} else if freeIdx < 0 {
				freeSeg, freeIdx = s, i
			}
		}
		last = s
	}
	if freeIdx < 0 {
		seg := &segment{}
		last.next = seg
		freeSeg, freeIdx = seg, 0
	}
	freeSeg.keys[freeIdx] = key
	freeSeg.vals[freeIdx] = v
	freeSeg.used[freeIdx] = true
	return true
}

// Remove deletes key; it reports whether the key was present.
func (h *Handle) Remove(key uint64) bool {
	b := h.t.bucketOf(key)
	tok := h.tok(b)
	h.t.locks[b].Acquire(tok)
	defer h.t.locks[b].Release(tok)
	for s := &h.t.buckets[b]; s != nil; s = s.next {
		for i := 0; i < segCap; i++ {
			if s.used[i] && s.keys[i] == key {
				s.used[i] = false
				return true
			}
		}
	}
	return false
}

// Len counts the stored entries (takes every bucket lock in turn; meant
// for tests and diagnostics).
func (h *Handle) Len() int {
	n := 0
	for b := uint64(0); b < h.t.nBuckets; b++ {
		tok := h.tok(b)
		h.t.locks[b].Acquire(tok)
		for s := &h.t.buckets[b]; s != nil; s = s.next {
			for i := 0; i < segCap; i++ {
				if s.used[i] {
					n++
				}
			}
		}
		h.t.locks[b].Release(tok)
	}
	return n
}

// String describes the table configuration.
func (t *Table) String() string {
	return fmt.Sprintf("ssht(%d buckets, %s locks)", t.nBuckets, t.lockAlg)
}
