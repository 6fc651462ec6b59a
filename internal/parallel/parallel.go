// Package parallel is the deterministic fan-out engine for independent
// simulation runs. Every sweep in this repo is embarrassingly parallel —
// each run owns a private *sim.Engine — but the outputs (result slices,
// metric registries, progress lines, CSV rows) are order-sensitive, so
// naive worker pools would leak scheduler nondeterminism into them.
//
// ForEachOrdered closes that gap with a single rule: work may complete in
// any order on any worker, but results are *delivered* in index order, on
// the calling goroutine. A job's function must be a pure function of its
// index (no shared mutable state); everything order-sensitive — progress
// callbacks, metric merging, slice appends — belongs in the collect
// callback, which runs exactly as the equivalent serial loop would. Under
// that contract the output of a sweep is byte-identical at every worker
// count, which is the repo's acceptance bar for parallel code (see
// DESIGN.md, "Concurrency model").
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a -j flag value: n >= 1 selects exactly n workers,
// anything else (0, negative) selects GOMAXPROCS, i.e. "all cores".
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// OptWorkers normalizes an options-struct Workers field, whose zero value
// runs serially: 0 and 1 select the serial loop, negative selects GOMAXPROCS, n >= 2
// selects n workers. CLIs resolve their -j flag with Workers and store
// the result here.
func OptWorkers(n int) int {
	if n == 0 {
		return 1
	}
	return Workers(n)
}

// ForEachOrdered runs fn(i) for every i in [0, n) on up to workers
// goroutines and hands each result to collect(i, v) in strictly
// increasing index order, always on the calling goroutine. It returns
// once every job has run and every result has been collected.
//
// fn must not touch shared mutable state: it may run concurrently with
// other indices and with collect. collect needs no synchronization; it
// is the serial tail of the loop. With workers <= 1 (or n <= 1) no
// goroutines are spawned and the call degrades to the plain serial loop,
// which is the -j 1 path.
func ForEachOrdered[T any](n, workers int, fn func(i int) T, collect func(i int, v T)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			collect(i, fn(i))
		}
		return
	}

	var (
		mu   sync.Mutex
		cond = sync.NewCond(&mu)
		done = make([]bool, n)
		res  = make([]T, n)
		next atomic.Int64 // next job index to claim
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v := fn(i)
				mu.Lock()
				res[i] = v
				done[i] = true
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	var zero T
	for i := 0; i < n; i++ {
		mu.Lock()
		for !done[i] {
			cond.Wait()
		}
		v := res[i]
		res[i] = zero // release the result's memory as soon as it is consumed
		mu.Unlock()
		collect(i, v)
	}
	wg.Wait()
}
