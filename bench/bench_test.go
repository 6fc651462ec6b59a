package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"tcpsig/internal/testbed"
)

// ccsigBin is the ccsig binary the tests drive, built once by TestMain.
var ccsigBin string

func TestMain(m *testing.M) {
	if os.Getenv(probeEnv) != "" {
		return // timed as an emulator workload's set-up by the smoke tests
	}
	dir, err := os.MkdirTemp("", "bench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ccsigBin = filepath.Join(dir, "ccsig")
	build := exec.Command("go", "build", "-o", ccsigBin, "./cmd/ccsig")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building ccsig: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smallSize shrinks every workload to well under a second of work.
var smallSize = size{
	bases:       baseLibrary[:2], // the two fastest self-induced cells
	longFlows:   6,
	longRecords: 3000,
	shortRate:   20_000,
	sweep: testbed.SweepOptions{
		Rates:         []float64{10},
		Losses:        []float64{0},
		Latencies:     []time.Duration{20 * time.Millisecond},
		Buffers:       []time.Duration{20 * time.Millisecond},
		RunsPerConfig: 1,
		CongFlows:     2,
		Duration:      time.Second,
		Workers:       1,
	},
	selfRates: []float64{10},
	selfSeeds: 1,
}

// testEnv is a small-size environment whose files live in a temp dir.
func testEnv(t *testing.T, workload string, trace bool) *env {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &env{
		workload: workload,
		root:     root,
		work:     t.TempDir(),
		ccsig:    ccsigBin,
		model:    filepath.Join(root, "bench", "testdata", "model.json"),
		self:     self,
		seed:     5, // no golden: goldens are kept for seeds 1 and 2
		seconds:  500 * time.Millisecond,
		trace:    trace,
		size:     smallSize,
	}
}
