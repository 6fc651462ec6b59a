// Package lockleak is the fixture for the lockleak analyzer.
package lockleak

import "sync"

var mu sync.Mutex
var rw sync.RWMutex

func lockNoUnlock() {
	mu.Lock() // want `mu.Lock without a matching Unlock`
	work()
}

func lockDefer() {
	mu.Lock()
	defer mu.Unlock()
	work()
}

func lockStraightLine() int {
	mu.Lock()
	x := 1
	mu.Unlock()
	return x
}

func lockEarlyReturn(cond bool) {
	mu.Lock() // want `early exit between Lock and mu.Unlock leaks the lock`
	if cond {
		return
	}
	mu.Unlock()
}

func lockLateDefer(cond bool) {
	mu.Lock() // want `early exit before the deferred Unlock leaks the lock`
	if cond {
		return
	}
	defer mu.Unlock()
	work()
}

func rlockNoUnlock() {
	rw.RLock() // want `rw.RLock without a matching RUnlock`
	work()
}

func rlockDefer() {
	rw.RLock()
	defer rw.RUnlock()
	work()
}

// A FuncLit's returns do not exit the enclosing frame.
func lockWithClosure() {
	mu.Lock()
	f := func() { return }
	f()
	mu.Unlock()
}

func work() {}
