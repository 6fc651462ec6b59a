package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"tcpsig/internal/core"
	"tcpsig/internal/testbed"
)

// TestSweepDeterminism runs the controlled-experiment sweep twice with the
// same seed, in-process, and asserts the feature vectors, the trained
// model, and every verdict are byte-identical. The sigcheck analyzers
// prove the absence of specific nondeterminism *sources* (wall clock,
// global rand, map iteration order); this test catches whatever they
// cannot: scheduler-dependent orderings, float reassociation, or a new
// source the lints do not model yet.
func TestSweepDeterminism(t *testing.T) {
	const seed = 4242
	a := sweepFingerprint(t, seed)
	b := sweepFingerprint(t, seed)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed sweeps diverged:\nfirst:  %d bytes\nsecond: %d bytes\n%s", len(a), len(b), firstDiff(a, b))
	}
}

// sweepFingerprint runs the full pipeline — sweep, labeling, training,
// classification — and serializes everything downstream consumers could
// observe.
func sweepFingerprint(t *testing.T, seed int64) []byte {
	t.Helper()
	opt := testbed.SweepOptions{
		Seed:          seed,
		Rates:         []float64{20},
		Losses:        []float64{0},
		Latencies:     testbed.PaperLatencies[:1],
		Buffers:       testbed.PaperBuffers[:2],
		RunsPerConfig: 2,
		Duration:      3e9, // 3 s of sim time
	}
	results, err := testbed.SweepCheckpointed(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 4 {
		t.Fatalf("sweep yielded only %d results", len(results))
	}
	clf, err := TrainOnResults(results, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Scenario   int
		Features   interface{}
		Class      int
		Confidence float64
		Reason     core.Reason
	}
	var rows []row
	for _, r := range results {
		v := clf.ClassifyFeatures(r.Features)
		rows = append(rows, row{
			Scenario:   r.Scenario,
			Features:   r.Features,
			Class:      v.Class,
			Confidence: v.Confidence,
			Reason:     v.Reason,
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(rows); err != nil {
		t.Fatal(err)
	}
	// The persisted model participates too: tree training must also be
	// seed-deterministic for saved models to be reproducible.
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			hiA, hiB := i+40, i+40
			if hiA > len(a) {
				hiA = len(a)
			}
			if hiB > len(b) {
				hiB = len(b)
			}
			return fmt.Sprintf("first divergence at byte %d:\n%s\nvs\n%s", i, a[lo:hiA], b[lo:hiB])
		}
	}
	return "one fingerprint is a prefix of the other"
}
