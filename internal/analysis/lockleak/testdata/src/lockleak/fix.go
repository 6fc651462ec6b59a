package lockleak

import "sync"

var fixMu sync.Mutex

// The trailing-unlock-with-early-exit pattern has a mechanical rewrite:
// defer the unlock at the lock site. fix.go.golden pins it.
func leakOnEarlyReturn(cond bool) {
	fixMu.Lock() // want `early exit between Lock and fixMu.Unlock leaks the lock`
	if cond {
		return
	}
	fixMu.Unlock()
}
