package telemetry

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"tcpsig/internal/obs"
)

func runSnapshot(runs uint64, norm float64) []obs.Metric {
	r := obs.NewRegistry()
	r.Counter("run.valid").Add(runs)
	r.Gauge("run.normdiff").Set(norm)
	r.Histogram("run.cov", []float64{0.5, 1}).Observe(norm)
	return r.Snapshot()
}

func metricByName(ms []obs.Metric, name string) *obs.Metric {
	for i := range ms {
		if ms[i].Name == name {
			return &ms[i]
		}
	}
	return nil
}

func TestLiveFoldScrape(t *testing.T) {
	l := NewLive()
	l.Fold(runSnapshot(1, 0.2))
	l.Fold(runSnapshot(2, 0.8))
	l.Fold(nil) // empty snapshots are dropped, not queued

	ms := l.Scrape()
	if c := metricByName(ms, "run.valid"); c == nil || c.Count != 3 {
		t.Errorf("run.valid = %+v, want count 3", c)
	}
	// Gauges are last-merge-wins in run order.
	if g := metricByName(ms, "run.normdiff"); g == nil || g.Value != 0.8 {
		t.Errorf("run.normdiff = %+v, want 0.8", g)
	}
	h := metricByName(ms, "run.cov")
	if h == nil || h.Count != 2 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Errorf("run.cov = %+v", h)
	}
	// The conflict counter must not fire for well-matched buckets.
	if c := metricByName(ms, obs.BucketConflictCounter); c != nil {
		t.Errorf("unexpected %s = %+v", obs.BucketConflictCounter, c)
	}
}

// TestLiveMetricsWithoutScraper: Metrics() on an idle Live scrapes fresh,
// so a CLI that never starts the scraper still serves current data.
func TestLiveMetricsWithoutScraper(t *testing.T) {
	l := NewLive()
	l.Fold(runSnapshot(5, 0.1))
	if c := metricByName(l.Metrics(), "run.valid"); c == nil || c.Count != 5 {
		t.Errorf("Metrics without scraper = %+v, want count 5", c)
	}
}

func TestLiveNilSafe(t *testing.T) {
	var l *Live
	l.Fold(runSnapshot(1, 0))
	if ms := l.Scrape(); ms != nil {
		t.Errorf("nil Scrape = %+v", ms)
	}
	if ms := l.Metrics(); ms != nil {
		t.Errorf("nil Metrics = %+v", ms)
	}
	stop := l.StartScraper(time.Millisecond)
	stop()
}

// TestLiveConcurrent folds from many goroutines while a fast scraper and
// concurrent readers run — the shape -race must hold. The final snapshot
// after stop() must account for every fold.
func TestLiveConcurrent(t *testing.T) {
	l := NewLive()
	stop := l.StartScraper(time.Millisecond)

	const folders, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < folders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Fold(runSnapshot(1, 0.5))
			}
		}()
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < 100; i++ {
			WritePrometheus(discard{}, l.Metrics())
		}
	}()
	wg.Wait()
	<-readerDone
	stop()
	stop() // idempotent

	ms := l.Metrics()
	if c := metricByName(ms, "run.valid"); c == nil || c.Count != folders*each {
		t.Errorf("run.valid = %+v, want count %d", c, folders*each)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// The stop func returned by StartScraper joins the scraper goroutine.
func TestScraperStopJoins(t *testing.T) {
	l := NewLive()
	base := runtime.NumGoroutine()
	stop := l.StartScraper(time.Millisecond)
	if runtime.NumGoroutine() <= base {
		t.Fatal("StartScraper launched no goroutine")
	}
	l.Fold(runSnapshot(1, 0.5))
	stop()
	waitForGoroutines(t, base)
}
