package obs

import (
	"bytes"
	"testing"
)

// TestZeroValueRegistry: the zero value must be usable without
// NewRegistry. Before the lazy-init fix, the first Counter/Gauge/Histogram
// registration on a zero-value Registry panicked with a nil-map write,
// which is exactly what the testbed sweep hit when handed a caller-constructed
// &obs.Registry{}.
func TestZeroValueRegistry(t *testing.T) {
	var r Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(2.5)
	r.Histogram("h", LinearBuckets(1, 1, 3)).Observe(1.5)
	if got := r.Counter("c").Value(); got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
	if got := r.Gauge("g").Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	if got := r.Histogram("h", LinearBuckets(1, 1, 3)).Count(); got != 1 {
		t.Fatalf("histogram count = %d, want 1", got)
	}
	if len(r.Snapshot()) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", len(r.Snapshot()))
	}
}

// TestHistogramBucketConflict: re-registering a name with different
// buckets must be visible in the conflict counter instead of silently
// misfiling the second caller's observations.
func TestHistogramBucketConflict(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("h", LinearBuckets(1, 1, 3))
	a.Observe(2)
	b := r.Histogram("h", LinearBuckets(10, 10, 5)) // different buckets
	if b != a {
		t.Fatal("conflicting registration returned a different histogram; the name must own its buckets")
	}
	if got := r.Counter(BucketConflictCounter).Value(); got != 1 {
		t.Fatalf("conflict counter = %d, want 1", got)
	}
	// Same buckets again: no new conflict.
	r.Histogram("h", LinearBuckets(1, 1, 3))
	if got := r.Counter(BucketConflictCounter).Value(); got != 1 {
		t.Fatalf("conflict counter after matching lookup = %d, want 1", got)
	}
}

// TestMergeMatchesSerial: folding per-run registries in run order must
// reproduce the snapshot a single serially-updated registry produces.
func TestMergeMatchesSerial(t *testing.T) {
	observe := func(r *Registry, run int) {
		r.Counter("runs").Inc()
		if run%2 == 0 {
			r.Counter("even").Inc()
		}
		r.Gauge("last_run").Set(float64(run))
		r.Histogram("v", LinearBuckets(0.5, 0.5, 4)).Observe(float64(run) * 0.3)
	}

	serial := NewRegistry()
	merged := NewRegistry()
	for run := 0; run < 7; run++ {
		observe(serial, run)
		per := NewRegistry()
		observe(per, run)
		merged.Merge(per)
	}

	var a, b bytes.Buffer
	if err := serial.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("merged snapshot differs from serial:\nserial:\n%s\nmerged:\n%s", a.String(), b.String())
	}
}

// TestMergeBucketConflict: a histogram whose buckets disagree is skipped
// and counted, not corrupted.
func TestMergeBucketConflict(t *testing.T) {
	dst := NewRegistry()
	dst.Histogram("h", LinearBuckets(1, 1, 3)).Observe(2)
	src := NewRegistry()
	src.Histogram("h", LinearBuckets(5, 5, 2)).Observe(7)
	dst.Merge(src)
	if got := dst.Histogram("h", LinearBuckets(1, 1, 3)).Count(); got != 1 {
		t.Fatalf("dst histogram count = %d, want 1 (conflicting src must not merge)", got)
	}
	if got := dst.Counter(BucketConflictCounter).Value(); got != 1 {
		t.Fatalf("conflict counter = %d, want 1", got)
	}
}

// TestMergeNil: nil source and nil destination are both no-ops.
func TestMergeNil(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Merge(nil)
	if got := r.Counter("c").Value(); got != 1 {
		t.Fatalf("counter = %d after nil merge, want 1", got)
	}
	var nilReg *Registry
	nilReg.Merge(r) // must not panic
}

// TestMergeIntoZeroValue: merging into a zero-value registry must work —
// the parallel sweep merges per-run registries into whatever the caller
// handed it.
func TestMergeIntoZeroValue(t *testing.T) {
	src := NewRegistry()
	src.Counter("c").Add(3)
	src.Gauge("g").Set(1)
	src.Histogram("h", LinearBuckets(1, 1, 2)).Observe(0.5)
	var dst Registry
	dst.Merge(src)
	if got := dst.Counter("c").Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if got := dst.Histogram("h", LinearBuckets(1, 1, 2)).Count(); got != 1 {
		t.Fatalf("histogram count = %d, want 1", got)
	}
}
