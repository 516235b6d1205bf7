// Package lockorder flags nested shard-lock acquisitions. The store's
// documented discipline is that shard locks are held one at a time: the
// engines' point ops lock exactly one shard, and ExecBatch's group loop
// acquires each touched shard's lock once, sequentially, in shard order
// — never holding two. A second acquire while one is held is how
// lock-ordering deadlocks enter a sharded system, so any intentional
// multi-hold (the hierarchical cohort locks' fixed local-then-global
// order, a future two-phase transaction path) must be blessed with
// //ssync:ignore lockorder and a justification naming its total order.
package lockorder

import (
	"go/ast"
	"go/types"

	"ssync/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "shard locks are held one at a time: a lock/Acquire on a " +
		"locks.Lock or a shard-lock helper while another is still held is " +
		"flagged; bless fixed-order multi-holds with //ssync:ignore lockorder <why>",
	Run: run,
}

// locksPkg is the lock-algorithm package; every Acquire/Release on its
// types is a shard/algorithm lock event.
const locksPkg = "ssync/internal/locks"

// event is one acquire or release in source order.
type event struct {
	acquire  bool
	deferred bool
	key      string // printed receiver (plus index arg for helpers)
	pos      ast.Node
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, fd.Body)
		}
	}
	return nil
}

// checkBody collects the body's lock events in source order (function
// literals are separate scopes, analyzed on their own) and simulates
// the held set.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	var events []event
	var nested []*ast.FuncLit
	var walk func(n ast.Node, deferred bool)
	walk = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				nested = append(nested, n)
				return false
			case *ast.DeferStmt:
				walk(n.Call, true)
				return false
			case *ast.CallExpr:
				if ev, ok := classify(pass, n); ok {
					ev.deferred = deferred
					events = append(events, ev)
				}
			}
			return true
		})
	}
	walk(body, false)

	var held []event
	for _, ev := range events {
		switch {
		case ev.acquire:
			if len(held) > 0 {
				pass.Reportf(ev.pos.Pos(),
					"lock %s acquired while still holding %s; shard locks are held one at a time (release first, or bless a fixed-order multi-hold with //ssync:ignore lockorder <why>)",
					ev.key, held[len(held)-1].key)
			}
			held = append(held, ev)
		case ev.deferred:
			// A deferred release runs at function exit: the lock stays
			// held for the rest of the body.
		default:
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].key == ev.key {
					held = append(held[:i], held[i+1:]...)
					break
				}
			}
		}
	}

	for _, fl := range nested {
		checkBody(pass, fl.Body)
	}
}

// classify decides whether a call is a shard-lock acquire or release:
// Acquire/Release (and Lock/Unlock adapters) on ssync/internal/locks
// types, or the engines' lock(i)/unlock(i) helper methods on types of
// the analyzed package.
func classify(pass *analysis.Pass, call *ast.CallExpr) (event, bool) {
	fun, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return event{}, false
	}
	sel, ok := pass.Info.Selections[fun]
	if !ok || sel.Kind() != types.MethodVal {
		return event{}, false
	}
	recvPkg := typePkg(sel.Recv())
	name := fun.Sel.Name
	fromLocks := recvPkg == locksPkg
	samePkg := recvPkg == pass.Pkg.Path()

	acquire := (fromLocks && (name == "Acquire" || name == "Lock")) ||
		(samePkg && name == "lock")
	release := (fromLocks && (name == "Release" || name == "Unlock")) ||
		(samePkg && name == "unlock")
	if !acquire && !release {
		return event{}, false
	}
	key := types.ExprString(fun.X)
	// The engine helpers' first argument is the shard index, part of the
	// lock's identity; Acquire/Release take a token, which is not.
	if (name == "lock" || name == "unlock") && len(call.Args) > 0 {
		key += "[" + types.ExprString(call.Args[0]) + "]"
	}
	return event{acquire: acquire, key: key, pos: fun.Sel}, true
}

// typePkg names the package of a (possibly pointer) named receiver
// type; "" otherwise.
func typePkg(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path()
}
