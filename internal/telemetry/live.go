package telemetry

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tcpsig/internal/obs"
)

// Live folds per-run sim-time metric snapshots into a wall-clock aggregate
// the admin server can expose mid-sweep. The design keeps the sweep's
// ordered collection path cheap and deterministic:
//
//   - Fold, called from the collect callback, only appends the snapshot to
//     a pending queue under a short lock — no merging on the sweep's
//     serial tail.
//   - A periodic scraper goroutine (StartScraper) drains the queue,
//     merges it into the aggregate with obs.Registry.Merge in arrival
//     (= run) order, and caches an immutable snapshot.
//   - Metrics, the /metrics source, returns the cached snapshot without
//     touching the fold lock when a scraper is running.
//
// Because Fold receives snapshots (plain data) rather than live
// registries, the sim-time plane is never read concurrently with a run,
// and disabling telemetry changes nothing about the sweep's own outputs.
type Live struct {
	mu      sync.Mutex
	pending [][]obs.Metric
	agg     *obs.Registry

	cached   atomic.Pointer[[]obs.Metric]
	scraping atomic.Bool
}

// NewLive returns an empty live aggregate.
func NewLive() *Live {
	return &Live{agg: obs.NewRegistry()}
}

// Fold queues one per-run metric snapshot for aggregation. Cheap (append
// under a mutex), nil-safe, and callable from ordered collect callbacks.
func (l *Live) Fold(ms []obs.Metric) {
	if l == nil || len(ms) == 0 {
		return
	}
	l.mu.Lock()
	l.pending = append(l.pending, ms)
	l.mu.Unlock()
}

// Scrape drains the pending queue into the aggregate and caches the
// resulting snapshot, which it also returns.
func (l *Live) Scrape() []obs.Metric {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	for _, ms := range l.pending {
		l.agg.Merge(obs.FromSnapshot(ms))
	}
	l.pending = nil
	snap := l.agg.Snapshot()
	// Snapshot's histogram Counts alias the aggregate, which the next
	// Scrape merges into while readers of the cached copy hold no lock.
	for i := range snap {
		snap[i].Counts = slices.Clone(snap[i].Counts)
	}
	l.mu.Unlock()
	l.cached.Store(&snap)
	return snap
}

// Metrics is the /metrics snapshot source: the last scrape when a scraper
// is running (lock-free), or a fresh scrape otherwise.
func (l *Live) Metrics() []obs.Metric {
	if l == nil {
		return nil
	}
	if l.scraping.Load() {
		if snap := l.cached.Load(); snap != nil {
			return *snap
		}
	}
	return l.Scrape()
}

// StartScraper runs Scrape every interval (default 2s) on a background
// goroutine until the returned stop function is called. Stop performs one
// final scrape so the cached snapshot includes every folded run.
func (l *Live) StartScraper(interval time.Duration) (stop func()) {
	if l == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = 2 * time.Second
	}
	l.scraping.Store(true)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				l.Scrape()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
			l.scraping.Store(false)
			l.Scrape()
		})
	}
}
