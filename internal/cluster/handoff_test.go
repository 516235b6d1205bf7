package cluster

import "testing"

// An exhaustive model checker for the handoff protocol, in the style of
// the memsim litmus tests: instead of hoping the race detector catches
// a bad schedule, enumerate every interleaving of a small model and
// assert the invariants on each terminal state.
//
// The model has two nodes (A, the source; B, the target), two keys
// (key 0 lies in the moving arc, key 1 does not), up to three client
// ops, and the migration driver. Each thread is a sequence of atomic
// steps mirroring the implementation's atomicity exactly:
//
//   - driver: install-tracker → copy-read (snapshot A's in-arc state) →
//     copy-apply (land the snapshot on B) → commit (atomically: re-ship
//     the dirty delta, purge A's arc, flip the ring, drop the tracker).
//     copy-read and copy-apply are separate steps because the real copy
//     reads under a shard lock and applies over the wire later — the
//     window the dirty tracker exists for.
//   - client op: the first attempt lands on a nondeterministically
//     chosen node (a client with a stale ring sends to the wrong one);
//     each attempt atomically checks ownership against the current ring
//     and either executes (recording the key as dirty when a tracker
//     covers it) or becomes a forward attempt at the owner — exactly
//     nodeFilter.Route under its RLock. Commit is one atomic step
//     because the implementation runs it under every source filter's
//     write lock, which drains and excludes the route-execute steps.
//
// Invariants checked at every terminal state:
//
//	no-lost-update:        each key's final value equals the replay of
//	                       its ops in execution order over the initial
//	                       state — a write can be neither dropped (lost
//	                       between copy and commit) nor doubled.
//	exactly-once:          every op executed exactly once.
//	single-owner-at-commit: after the flip the source holds nothing in
//	                       the arc, and no op ever executed on the
//	                       source post-flip or on the target pre-flip.
//	bounded forwarding:    no op chain exceeds the wire hop cap.

const (
	hNodeA  = 0
	hNodeB  = 1
	hAbsent = int8(-1)
)

// hOp is one modeled client op.
type hOp struct {
	key int8 // 0 = moving key, 1 = staying key
	val int8 // hAbsent = delete, else the value a put writes
}

const (
	hOpStart = int8(iota) // first attempt, node chosen nondeterministically
	hOpAtA                // pending attempt at A
	hOpAtB                // pending attempt at B
	hOpDone
)

// hState is the whole model state; it is tiny and copied by value at
// every branch of the exploration.
type hState struct {
	a, b    [2]int8 // per-key stored value at each node (hAbsent = missing)
	flipped bool    // ring: false → A owns key 0; B never owns key 1
	tracker bool
	dirty   [2]bool
	snap    int8 // copy-read's snapshot of key 0 at A
	dpc     int8 // driver program counter: 0..4

	opc  [3]int8 // per-op pc
	hops [3]int8

	execOrder [4]int8 // indices of ops in execution order
	execs     int8
	execAt    [3]int8 // node each op executed at
	postFlip  [3]bool // whether the op executed after the commit
}

// hOwner is the model's ring lookup.
func (s *hState) hOwner(key int8) int8 {
	if key == 0 && s.flipped {
		return hNodeB
	}
	return hNodeA
}

func (s *hState) hStore(node int8) *[2]int8 {
	if node == hNodeA {
		return &s.a
	}
	return &s.b
}

// hExec applies op i at node n — the body of the filter's local branch.
func (s *hState) hExec(i int, op hOp, n int8) {
	s.hStore(n)[op.key] = op.val
	if n == hNodeA && s.tracker && op.key == 0 {
		s.dirty[op.key] = true
	}
	s.execOrder[s.execs] = int8(i)
	s.execs++
	s.execAt[i] = n
	s.postFlip[i] = s.flipped
	s.opc[i] = hOpDone
}

// hOpStep advances op i by one atomic route-or-execute step; for
// hOpStart the caller has already resolved the nondeterministic first
// target into at. It reports a hop-cap violation.
func (s *hState) hOpStep(i int, op hOp, at int8) bool {
	var n int8
	if at == hOpAtA {
		n = hNodeA
	} else {
		n = hNodeB
	}
	owner := s.hOwner(op.key)
	if owner == n {
		s.hExec(i, op, n)
		return true
	}
	s.hops[i]++
	if s.hops[i] > 8 { // store.MaxForwardHops
		return false
	}
	if owner == hNodeA {
		s.opc[i] = hOpAtA
	} else {
		s.opc[i] = hOpAtB
	}
	return true
}

// hDriverStep advances the driver by one step.
func (s *hState) hDriverStep() {
	switch s.dpc {
	case 0: // install tracker
		s.tracker = true
		s.dirty = [2]bool{}
	case 1: // copy-read: snapshot A's in-arc state
		s.snap = s.a[0]
	case 2: // copy-apply: land the snapshot on B
		if s.snap != hAbsent {
			s.b[0] = s.snap
		}
	case 3: // commit: delta, purge, flip, drop tracker — atomic
		if s.dirty[0] {
			s.b[0] = s.a[0]
		}
		s.a[0] = hAbsent
		s.flipped = true
		s.tracker = false
	}
	s.dpc++
}

// hStats accumulates coverage over the exploration.
type hStats struct {
	terminals  int
	forwards   int
	deltaRuns  int // commits that actually re-shipped a dirty key
	staleSends int
}

// hCheck asserts the invariants at a terminal state.
func hCheck(t *testing.T, init [2]int8, ops []hOp, s *hState, st *hStats) {
	t.Helper()
	st.terminals++
	// exactly-once.
	if int(s.execs) != len(ops) {
		t.Fatalf("%d ops executed, want %d", s.execs, len(ops))
	}
	// no-lost-update: replay per key in execution order.
	final := init
	for e := int8(0); e < s.execs; e++ {
		op := ops[s.execOrder[e]]
		final[op.key] = op.val
	}
	if s.b[0] != final[0] {
		t.Fatalf("moving key: target holds %d, replay gives %d (order %v, ops %v)",
			s.b[0], final[0], s.execOrder[:s.execs], ops)
	}
	if s.a[1] != final[1] {
		t.Fatalf("staying key: source holds %d, replay gives %d", s.a[1], final[1])
	}
	// single-owner-at-commit.
	if s.a[0] != hAbsent {
		t.Fatalf("source still holds %d for the moved key after commit", s.a[0])
	}
	if s.b[1] != hAbsent {
		t.Fatalf("target holds %d for a key that never moved", s.b[1])
	}
	for i := range ops {
		if ops[i].key != 0 {
			continue
		}
		if s.execAt[i] == hNodeA && s.postFlip[i] {
			t.Fatalf("op %d executed at the ex-owner after the flip", i)
		}
		if s.execAt[i] == hNodeB && !s.postFlip[i] {
			t.Fatalf("op %d executed at the target before the flip", i)
		}
	}
	for _, h := range s.hops {
		st.forwards += int(h)
	}
	if s.dirty[0] {
		st.deltaRuns++
	}
}

// hExplore enumerates every interleaving (and every nondeterministic
// first-attempt target) from state s.
func hExplore(t *testing.T, init [2]int8, ops []hOp, s hState, st *hStats) {
	progressed := false
	// Driver step.
	if s.dpc < 4 {
		progressed = true
		next := s
		next.hDriverStep()
		hExplore(t, init, ops, next, st)
	}
	// Client op steps.
	for i := range ops {
		switch s.opc[i] {
		case hOpDone:
			continue
		case hOpStart:
			progressed = true
			for _, first := range []int8{hOpAtA, hOpAtB} {
				next := s
				if first == hOpAtB && !next.flipped {
					st.staleSends++ // wrong node: a stale or early client
				}
				if !next.hOpStep(i, ops[i], first) {
					t.Fatalf("op %d exceeded the hop cap", i)
				}
				hExplore(t, init, ops, next, st)
			}
		default:
			progressed = true
			next := s
			if !next.hOpStep(i, ops[i], next.opc[i]) {
				t.Fatalf("op %d exceeded the hop cap", i)
			}
			hExplore(t, init, ops, next, st)
		}
	}
	if !progressed {
		hCheck(t, init, ops, &s, st)
	}
}

// TestHandoffInterleavings drives the model over every op set of up to
// three puts/deletes on the moving and staying keys, from both an
// empty and a populated initial state, exploring all interleavings
// against the four driver steps.
func TestHandoffInterleavings(t *testing.T) {
	t.Parallel() // seconds of single-threaded search: overlap it with the matrices
	// The op universe: put (distinct values) or delete, on either key.
	universe := []hOp{
		{key: 0, val: 10},
		{key: 0, val: 11},
		{key: 0, val: hAbsent},
		{key: 1, val: 20},
		{key: 1, val: hAbsent},
	}
	maxOps := 3
	if testing.Short() {
		maxOps = 2
	}
	var st hStats
	for _, initVal := range []int8{hAbsent, 1} {
		init := [2]int8{initVal, initVal}
		var opSets [][]hOp
		var build func(cur []hOp, from int)
		build = func(cur []hOp, from int) {
			if len(cur) > 0 {
				opSets = append(opSets, append([]hOp(nil), cur...))
			}
			if len(cur) == maxOps {
				return
			}
			// Op multisets, not sequences: the interleaving exploration
			// already generates every relative order.
			for i := from; i < len(universe); i++ {
				build(append(cur, universe[i]), i)
			}
		}
		build(nil, 0)
		for _, ops := range opSets {
			s := hState{dpc: 0}
			s.a = init
			s.b = [2]int8{hAbsent, hAbsent}
			s.snap = hAbsent
			for i := range s.execAt {
				s.execAt[i] = hAbsent
			}
			hExplore(t, init, ops, s, &st)
		}
	}
	if st.terminals == 0 || st.forwards == 0 || st.deltaRuns == 0 || st.staleSends == 0 {
		t.Fatalf("coverage hole: %+v", st)
	}
	t.Logf("explored %d terminal states (%d forwards, %d dirty-delta commits, %d stale sends)",
		st.terminals, st.forwards, st.deltaRuns, st.staleSends)
}
