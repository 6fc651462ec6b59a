// Command bench is the repository's end-to-end benchmark. It measures the
// jobs users run — `ccsig serve` and `ccsig classify` on pcap bytes, and
// testbed sweeps — on seeded workloads, checks every output, and prints
// one JSON result line last.
//
// From the repository root:
//
//	bash bench/run.sh --workload serve-long --seed 1 --seconds 10 --trace 0
//
// or, from bench/, `go run . -seed 1` for every workload. -trace 1 does
// the traced run instead: per-layer metrics, a cost ledger per workload,
// and the spans in bench-trace.json. -reps N runs each workload N times
// and reports medians and quartiles. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"tcpsig/internal/testbed"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string
	Run  func(*env) (*result, error)
}

var workloads = []workload{
	{"serve-long", "ccsig serve on long staggered flows: most records hit a tombstone, so per-record decode and lookup dominate", runServeLong},
	{"serve-short", "ccsig serve fed open loop at 500k records/s with short flows: most records reach a live tracker, and verdict latency shows", runServeShort},
	{"classify-batch", "ccsig classify -json on the serve-long bytes: same decode and table without pump or tombstones, all samples held to EOF", runClassifyBatch},
	{"sweep-paper", "testbed.SweepCheckpointed over the paper grid subset, both scenarios: the researcher's job, dominated by external cells", runSweepPaper},
	{"cells-self", "testbed.Run on the 54 self-induced paper cells x 3 seeds: the single-flow sender, netem and flowrtt path alone", runCellsSelf},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what a workload needs to run.
type env struct {
	workload    string // set in the child process
	root        string // repository root
	work        string // scratch directory for builds and inputs
	ccsig       string // the built ccsig binary
	model       string // classifier model the pcap workloads load
	self        string // this executable
	seed        int64
	seconds     time.Duration
	trace       bool
	writeGolden bool
	size        size
}

// size scales the workloads; the tests shrink it.
type size struct {
	bases       []baseCell // base library of the pcap workloads
	longFlows   int        // flows in the long input
	longRecords int        // records replayed per long flow, at most
	shortRate   float64    // records/s of the open-loop generator
	sweep       testbed.SweepOptions
	selfRates   []float64 // cells-self access rates
	selfSeeds   int       // cells-self runs per cell
}

// fullSize is the benchmark. The long input's 96 flows are cut at 7500
// records (1.2-6 s of a 10-s test), about 0.7M records, so a run holds
// some 25 jobs. sweep-paper is the paper grid's rates with two loss
// rates, one latency and two buffers, one run per cell and scenario, each
// test 5 s long: half the paper's 10 s, which leaves slow start and so
// the features alone.
var fullSize = size{
	bases:       baseLibrary,
	longFlows:   96,
	longRecords: 7500,
	shortRate:   500_000,
	sweep: testbed.SweepOptions{
		Rates:         testbed.PaperRatesMbps,
		Losses:        []float64{0, 0.0005},
		Latencies:     []time.Duration{20 * time.Millisecond},
		Buffers:       []time.Duration{20 * time.Millisecond, 100 * time.Millisecond},
		RunsPerConfig: 1,
		CongFlows:     100,
		Duration:      5 * time.Second,
		Workers:       1,
	},
	selfRates: testbed.PaperRatesMbps,
	selfSeeds: 3,
}

// result is what one workload run reports to the parent process.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Digests   map[string]string  `json:"digests,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// probeEnv, set in the environment, makes the binary exit as soon as it
// has started: the emulator workloads time such launches as their set-up.
const probeEnv = "BENCH_PROBE"

func main() {
	if os.Getenv(probeEnv) != "" {
		return
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "how long each workload measures")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, ledger and bench-trace.json")
	reps := fs.Int("reps", 1, "runs per workload; medians and quartiles are reported")
	writeGolden := fs.Bool("write-golden", false, "rewrite the emulator workloads' goldens for this seed (1 or 2)")
	child := fs.Bool("child", false, "internal: run one workload in this process")
	fs.Parse(os.Args[1:])
	if fs.NArg() > 0 || *seconds < 1 || *reps < 1 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		os.Exit(2)
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	e := &env{
		root: root, work: filepath.Join(root, ".bench_build"), self: self, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, writeGolden: *writeGolden,
		size: fullSize,
	}
	e.ccsig = filepath.Join(e.work, "bin", "ccsig")
	e.model = filepath.Join(root, "bench", "testdata", "model.json")
	if *child {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		e.workload = w.Name
		res, err := w.Run(e)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	if err := parent(e, *name, *reps); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// findRoot walks up from the working directory to the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isDir(filepath.Join(dir, "cmd", "ccsig")) && isDir(filepath.Join(dir, "bench")) {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("no repository root (with cmd/ccsig and bench/) above the working directory")
		}
		dir = up
	}
}

func isDir(p string) bool {
	st, err := os.Stat(p)
	return err == nil && st.IsDir()
}

// parent builds ccsig, runs each selected workload rep in its own child
// process, and prints the report.
func parent(e *env, name string, reps int) error {
	selected := workloads
	if name != "all" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(filepath.Dir(e.ccsig), 0o755); err != nil {
		return err
	}
	build := exec.Command("go", "build", "-o", e.ccsig, "./cmd/ccsig")
	build.Dir = e.root
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building ccsig: %w", err)
	}

	prov := newProvenance(e, reps)
	results := make(map[string][]*result)
	for _, w := range selected {
		for rep := 0; rep < reps; rep++ {
			logf("== %s (seed %d, rep %d/%d)", w.Name, e.seed, rep+1, reps)
			res, err := runChild(e, w.Name)
			if err != nil {
				return err
			}
			results[w.Name] = append(results[w.Name], res)
			for k, v := range res.Digests {
				prov.Inputs[w.Name+"."+k] = v
			}
		}
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
		if err := writeTrace(filepath.Join(e.root, "bench-trace.json"), prov, selected, results); err != nil {
			return err
		}
	}
	return report(os.Stdout, prov, selected, results, defs)
}

// runChild runs one workload in a fresh process and decodes its result.
func runChild(e *env, name string) (*result, error) {
	args := []string{"-child", "-workload", name, "-seed", fmt.Sprint(e.seed),
		"-seconds", fmt.Sprint(int(e.seconds / time.Second)), "-trace", boolInt(e.trace)}
	if e.writeGolden {
		args = append(args, "-write-golden")
	}
	cmd := exec.Command(e.self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	out = bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	var res result
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("workload %s: bad result line: %w", name, err)
	}
	return &res, nil
}

func boolInt(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human table, the provenance line and, last, the JSON
// result line. With one workload the metrics carry their plain names;
// with several, each is prefixed by its workload.
func report(w io.Writer, prov *provenance, selected []workload, results map[string][]*result, defs []metricDef) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-15s %-34s %14s %14s %14s  %s\n", "workload", "metric", "median", "q1", "q3", "unit")
	final := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	for _, wl := range selected {
		reps := results[wl.Name]
		for _, r := range reps {
			final.Correct = final.Correct && r.Correct
			final.Attempted += r.Attempted
			final.Failed += r.Failed
		}
		for _, d := range defs {
			var xs []float64
			for _, r := range reps {
				v, ok := r.Metrics[d.Name]
				if !ok {
					return fmt.Errorf("workload %s did not report %s", wl.Name, d.Name)
				}
				xs = append(xs, v)
			}
			med := median(xs)
			fmt.Fprintf(bw, "%-15s %-34s %14.6g %14.6g %14.6g  %s\n", wl.Name, d.Name, med, quantile(xs, 0.25), quantile(xs, 0.75), d.Unit)
			key := d.Name
			if len(selected) > 1 {
				key = wl.Name + "." + d.Name
			}
			final.Metrics[key] = metricValue{Value: med, Unit: d.Unit}
		}
	}
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "provenance %s\n", pj)
	fj, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", fj)
	return bw.Flush()
}

// provenance records what produced a report.
type provenance struct {
	GitRev     string            `json:"git_rev"`
	GitDirty   bool              `json:"git_dirty"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	CPUModel   string            `json:"cpu_model"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Reps       int               `json:"reps"`
	Trace      bool              `json:"trace"`
	Inputs     map[string]string `json:"inputs"` // sha256 of each generated input and model
	Started    string            `json:"started"`
}

func newProvenance(e *env, reps int) *provenance {
	p := &provenance{
		GitRev: "unknown", GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(),
		Seed: e.seed, Seconds: int(e.seconds / time.Second), Reps: reps, Trace: e.trace,
		Inputs: map[string]string{}, Started: time.Now().UTC().Format(time.RFC3339),
	}
	if isDir(filepath.Join(e.root, ".git")) {
		if out, err := gitOutput(e.root, "rev-parse", "HEAD"); err == nil {
			p.GitRev = strings.TrimSpace(out)
		}
		if out, err := gitOutput(e.root, "status", "--porcelain"); err == nil {
			p.GitDirty = strings.TrimSpace(out) != ""
		}
	}
	if sum, err := fileDigest(e.model); err == nil {
		p.Inputs["model"] = sum
	}
	return p
}

func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	return string(out), err
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeTrace writes the traced run's spans, in workload order.
func writeTrace(path string, prov *provenance, selected []workload, results map[string][]*result) error {
	doc := struct {
		Provenance *provenance `json:"provenance"`
		Spans      []span      `json:"spans"`
	}{Provenance: prov, Spans: []span{}}
	for _, w := range selected {
		for _, r := range results[w.Name] {
			doc.Spans = append(doc.Spans, r.Spans...)
		}
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
