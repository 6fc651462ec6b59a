package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"tcpsig/internal/obs"
)

func adminGet(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("sweep.runs").Add(42)
	reg.Gauge("sweep.last_normdiff").Set(0.25)

	prog := NewProgress()
	prog.StageStarted("sweep", 120, 12, 3, "deadbeef")
	prog.ChunkDone("sweep", 3, 12, true, "deadbeef")
	prog.RunDone("sweep", 40, 120)

	s := &Server{
		Metrics:  func() []obs.Metric { return reg.Snapshot() },
		Progress: prog,
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := adminGet(t, ts.URL, "/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body = adminGet(t, ts.URL, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if n := mustParse(t, body); n != 2 {
		t.Errorf("/metrics: parsed %d samples, want 2:\n%s", n, body)
	}
	if !strings.Contains(body, "sweep_runs_total 42") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	code, body = adminGet(t, ts.URL, "/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/progress is not JSON: %v\n%s", err, body)
	}
	if snap.RunsDone != 40 || snap.RunsTotal != 120 {
		t.Errorf("/progress runs = %d/%d, want 40/120", snap.RunsDone, snap.RunsTotal)
	}
	if len(snap.Stages) != 1 || snap.Stages[0].Name != "sweep" ||
		snap.Stages[0].ChunksDone != 1 || snap.Stages[0].ChunksTotal != 12 ||
		snap.Stages[0].ResumedChunks != 3 || snap.Stages[0].LastDigest != "deadbeef" {
		t.Errorf("/progress stages = %+v", snap.Stages)
	}

	code, body = adminGet(t, ts.URL, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}

	code, _ = adminGet(t, ts.URL, "/nope")
	if code != http.StatusNotFound {
		t.Errorf("/nope = %d, want 404", code)
	}

	code, body = adminGet(t, ts.URL, "/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("/ = %d %q", code, body)
	}
}

// TestAdminZeroServer: a zero Server still serves every endpoint — empty
// exposition, zero progress — so wiring order in the CLIs cannot panic.
func TestAdminZeroServer(t *testing.T) {
	ts := httptest.NewServer((&Server{}).Handler())
	defer ts.Close()

	code, body := adminGet(t, ts.URL, "/metrics")
	if code != http.StatusOK || body != "" {
		t.Errorf("/metrics = %d %q, want empty 200", code, body)
	}
	code, body = adminGet(t, ts.URL, "/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/progress not JSON on nil Progress: %v", err)
	}
}

// TestAdminCPUProfile exercises the acceptance path: /debug/pprof/profile
// must return a non-empty pprof protobuf while the process runs.
func TestAdminCPUProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("1s CPU profile in -short mode")
	}
	ts := httptest.NewServer((&Server{}).Handler())
	defer ts.Close()

	code, body := adminGet(t, ts.URL, "/debug/pprof/profile?seconds=1")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/profile = %d: %s", code, body)
	}
	if len(body) == 0 {
		t.Fatal("empty CPU profile")
	}
}

// TestServerStartClose binds a real port, hits it, and shuts down. Close
// also ends the Serve goroutine and the served connection's; it does not
// wait for them, so the test polls.
func TestServerStartClose(t *testing.T) {
	base := runtime.NumGoroutine()
	s := &Server{}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	code, body := adminGet(t, "http://"+addr, "/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz on live server = %d %q", code, body)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	client := &http.Client{Timeout: time.Second}
	if _, err := client.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still answering after Close")
	}
	waitForGoroutines(t, base)
	var nilServer *Server
	if err := nilServer.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

// waitForGoroutines polls runtime.NumGoroutine until it is back to base,
// failing after a second. A goroutine that has been told to stop may not
// have returned yet, so one read would race it.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want at most %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCombinedMetrics(t *testing.T) {
	a := obs.NewRegistry()
	a.Counter("a.x").Inc()
	b := obs.NewRegistry()
	b.Gauge("b.y").Set(2)

	src := CombinedMetrics(
		func() []obs.Metric { return a.Snapshot() },
		nil,
		func() []obs.Metric { return b.Snapshot() },
	)
	ms := src()
	if len(ms) != 2 || ms[0].Name != "a.x" || ms[1].Name != "b.y" {
		t.Fatalf("combined = %+v", ms)
	}
}
