// Package lockleak checks that every mutex Lock is released on every
// path. A sync.Mutex or sync.RWMutex Lock/RLock with no Unlock in the same
// statement list, or with a return or branch between the Lock and a
// non-deferred Unlock, leaks the lock on an early exit; the fix is
// `defer mu.Unlock()` right after locking.
//
// The check is a per-statement-list heuristic, not a path-sensitive
// analysis: a lock released by a different function must carry a
// //sigcheck:ignore lockleak -- reason.
package lockleak

import (
	"go/ast"
	"go/types"

	"tcpsig/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "lockleak",
	Doc: "flag mutex locks that an early exit can leak\n\n" +
		"Every Lock/RLock must reach its Unlock/RUnlock on all paths in the\n" +
		"same statement list (prefer defer).",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	// Walk every function exactly once. Nested function literals are
	// visited as functions in their own right (checkLocks skips their
	// bodies while checking the enclosing function).
	pass.Inspect.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.FuncDecl:
			body = n.Body
		case *ast.FuncLit:
			body = n.Body
		}
		if body != nil {
			checkLocks(pass, body)
		}
	})
	return nil, nil
}

// lockMethod reports whether call is a Lock/RLock (or Unlock/RUnlock) call
// on a sync.Mutex or sync.RWMutex, returning the receiver expression.
func lockMethod(pass *analysis.Pass, call *ast.CallExpr, names ...string) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	match := false
	for _, n := range names {
		if sel.Sel.Name == n {
			match = true
		}
	}
	if !match {
		return nil, false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return nil, false
	}
	return sel.X, true
}

// checkLocks enforces, within every statement list of body, that a
// Lock/RLock call reaches its Unlock: either the next statement is the
// matching deferred Unlock, or a plain Unlock appears later in the same
// list with no return/branch/nested-early-exit between them.
func checkLocks(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // checked as its own function
		}
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		checkLockList(pass, list)
		return true
	})
}

func checkLockList(pass *analysis.Pass, list []ast.Stmt) {
	for i, stmt := range list {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		recv, ok := lockMethod(pass, call, "Lock", "RLock")
		if !ok {
			continue
		}
		unlock := "Unlock"
		if sel := call.Fun.(*ast.SelectorExpr); sel.Sel.Name == "RLock" {
			unlock = "RUnlock"
		}
		recvStr := types.ExprString(recv)
		checkOneLock(pass, call, list, i, recvStr, unlock)
	}
}

// checkOneLock inspects the statements after list[i] (a Lock call on
// recvStr) for the matching unlock discipline.
func checkOneLock(pass *analysis.Pass, lock *ast.CallExpr, list []ast.Stmt, i int, recvStr, unlock string) {
	// Deferred unlock anywhere after the lock dominates every later exit;
	// it is only unsafe if an early exit can happen before the defer runs.
	for j := i + 1; j < len(list); j++ {
		if d, ok := list[j].(*ast.DeferStmt); ok {
			if r, ok := lockMethod(pass, d.Call, unlock); ok && types.ExprString(r) == recvStr {
				if j == i+1 || !earlyExitBetween(list[i+1:j]) {
					return
				}
				pass.Reportf(lock.Pos(), "%s.%s: an early exit before the deferred %s leaks the lock; defer immediately after locking", recvStr, lockName(lock), unlock)
				return
			}
		}
	}
	// Plain unlock in the same list: safe only when no statement between
	// can exit early (return, branch, or a call that panics on purpose).
	for j := i + 1; j < len(list); j++ {
		es, ok := list[j].(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		if r, ok := lockMethod(pass, call, unlock); ok && types.ExprString(r) == recvStr {
			if !earlyExitBetween(list[i+1 : j]) {
				return
			}
			d := analysis.Diagnostic{
				Pos:     lock.Pos(),
				Message: recvStr + "." + lockName(lock) + ": an early exit between Lock and " + recvStr + "." + unlock + " leaks the lock; use defer",
			}
			// The mechanical rewrite: defer the unlock right after the
			// lock and drop the trailing unlock statement. Only offered
			// when the unlock is the final statement of the list, where
			// moving the release to function/block exit cannot extend the
			// critical section past other statements in this list.
			if j == len(list)-1 {
				d.SuggestedFixes = []analysis.SuggestedFix{{
					Message: "defer the unlock at the lock site",
					TextEdits: []analysis.TextEdit{
						{Pos: list[i].End(), End: list[i].End(), NewText: []byte("\n\tdefer " + recvStr + "." + unlock + "()")},
						{Pos: list[j].Pos(), End: list[j].End(), NewText: nil},
					},
				}}
			}
			pass.Report(d)
			return
		}
	}
	pass.Reportf(lock.Pos(), "%s.%s without a matching %s in the same statement list: the lock is not released on every path", recvStr, lockName(lock), unlock)
}

func lockName(call *ast.CallExpr) string {
	return call.Fun.(*ast.SelectorExpr).Sel.Name
}

// earlyExitBetween reports whether any of the statements can leave the
// enclosing list before reaching the statement after them: a return, a
// break/continue/goto, or a nested statement containing one.
func earlyExitBetween(stmts []ast.Stmt) bool {
	exit := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ReturnStmt, *ast.BranchStmt:
				exit = true
			case *ast.FuncLit:
				return false // its returns do not exit this frame
			}
			return !exit
		})
		if exit {
			return true
		}
	}
	return false
}
