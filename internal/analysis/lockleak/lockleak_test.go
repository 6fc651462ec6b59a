package lockleak_test

import (
	"testing"

	"tcpsig/internal/analysis/analysistest"
	"tcpsig/internal/analysis/lockleak"
)

func TestLockLeak(t *testing.T) {
	analysistest.RunWithSuggestedFixes(t, "testdata", lockleak.Analyzer, "lockleak")
}
