package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"tcpsig/internal/features"
	"tcpsig/internal/flowrtt"
	"tcpsig/internal/netem"
	"tcpsig/internal/testbed"
)

// labelThreshold is the slow-start labeling threshold of testbed -csv rows.
const labelThreshold = 0.8

// discardRow stands for a run the paper's validity filter discards.
const discardRow = "discarded"

// sweepOptions is the sweep-paper job for this seed.
func sweepOptions(e *env) testbed.SweepOptions {
	o := e.size.sweep
	o.Seed = e.seed
	return o
}

// sweepCells lists the runs sweepOptions expands to, in run order: rate,
// loss, latency, buffer, scenario (self-induced, then external), repetition,
// run i seeded base+1+i (see testbed's sweepSeed). The traced run calls
// testbed.Run on these directly, and the goldens hold it to the sweep.
func sweepCells(e *env) []testbed.Config {
	o := sweepOptions(e)
	var out []testbed.Config
	for _, rate := range o.Rates {
		for _, loss := range o.Losses {
			for _, lat := range o.Latencies {
				for _, buf := range o.Buffers {
					for _, cong := range []int{0, o.CongFlows} {
						for run := 0; run < o.RunsPerConfig; run++ {
							cfg := testbed.Config{
								Access:     testbed.AccessParams{RateMbps: rate, Loss: loss, Latency: lat, Jitter: 2 * time.Millisecond, Buffer: buf},
								CongFlows:  cong,
								TransCross: true,
								Duration:   o.Duration,
								Seed:       o.Seed + 1 + int64(len(out)),
							}
							if cong > 0 {
								cfg.WarmUp = 4 * time.Second
							}
							out = append(out, cfg)
						}
					}
				}
			}
		}
	}
	return out
}

// selfCells is the cells-self job: every self-induced cell of the paper
// grid, several seeds each.
func selfCells(e *env) []testbed.Config {
	var out []testbed.Config
	for _, rate := range e.size.selfRates {
		for _, loss := range testbed.PaperLosses {
			for _, lat := range testbed.PaperLatencies {
				for _, buf := range testbed.PaperBuffers {
					for rep := 0; rep < e.size.selfSeeds; rep++ {
						out = append(out, testbed.Config{
							Access:     testbed.AccessParams{RateMbps: rate, Loss: loss, Latency: lat, Jitter: 2 * time.Millisecond, Buffer: buf},
							TransCross: true,
							Seed:       e.seed*1000 + int64(len(out)),
						})
					}
				}
			}
		}
	}
	return out
}

// csvRow renders a result as a `testbed -csv` row.
func csvRow(r *testbed.Result) string {
	return fmt.Sprintf("%s,%.0f,%.4f,%.0f,%.0f,%.4f,%.4f,%.2f,%.2f,%s",
		testbed.ClassName(r.Scenario),
		r.Config.Access.RateMbps,
		r.Config.Access.Loss,
		float64(r.Config.Access.Latency)/float64(time.Millisecond),
		float64(r.Config.Access.Buffer)/float64(time.Millisecond),
		r.Features.NormDiff, r.Features.CoV,
		r.SlowStartBps/1e6, r.FlowBps/1e6,
		testbed.ClassName(r.Label(labelThreshold)))
}

// outcome is one run's row and, when the run is wrong, why.
type outcome struct {
	row string
	bad string
}

// outcomeOf checks one run. A run the paper's sample-count filter discards
// is an expected outcome; any other error, or a result outside what the
// features can be, is a failure.
func outcomeOf(r *testbed.Result, err error) outcome {
	if err != nil {
		if errors.Is(err, flowrtt.ErrTooFewSamples) {
			return outcome{row: discardRow}
		}
		return outcome{row: "error", bad: err.Error()}
	}
	o := outcome{row: csvRow(r)}
	f := r.Features
	switch {
	case !(f.NormDiff >= 0 && f.NormDiff <= 1):
		o.bad = fmt.Sprintf("normdiff %v outside [0,1]", f.NormDiff)
	case !(f.CoV >= 0) || math.IsInf(f.CoV, 0):
		o.bad = fmt.Sprintf("cov %v", f.CoV)
	case !(r.SlowStartBps > 0 && r.FlowBps > 0):
		o.bad = fmt.Sprintf("throughput %v/%v", r.SlowStartBps, r.FlowBps)
	case (r.Config.CongFlows > 0) != (r.Scenario == testbed.External):
		o.bad = "scenario does not match the configuration"
	}
	return o
}

// crossCheck decodes a run's capture through the path ccsig uses — pcap
// bytes, pcap.Reader, RecordToCapture, flowrtt.Tracker — and checks it
// reaches the features the emulator computed from the capture in memory.
func crossCheck(capt *netem.Capture, r *testbed.Result) error {
	b, err := newBase("check", capt)
	if err != nil {
		return err
	}
	_, info, err := decodeBase(b)
	if err != nil {
		return err
	}
	fv, err := features.FromRTTs(info.SlowStartRTTs(), 0)
	if err != nil {
		return fmt.Errorf("pcap path: %w", err)
	}
	if math.Abs(fv.NormDiff-r.Features.NormDiff) > 1e-3 || math.Abs(fv.CoV-r.Features.CoV) > 1e-3 {
		return fmt.Errorf("pcap path gives normdiff %.5f cov %.5f, emulator %.5f %.5f",
			fv.NormDiff, fv.CoV, r.Features.NormDiff, r.Features.CoV)
	}
	return nil
}

// emuStats accumulates the untraced jobs of an emulator workload.
type emuStats struct {
	runStats
	name   string
	golden []string // row digests for this seed, nil when there is none
	first  []outcome
}

func newEmuStats(e *env, name string) (*emuStats, error) {
	s := &emuStats{name: name}
	if e.writeGolden {
		return s, nil
	}
	g, err := loadGolden(goldenPath(e, name))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	s.golden = g
	return s, nil
}

// check counts the failed runs of one job: wrong outcomes, rows that
// differ from the golden, and rows that differ from the first job's.
func (s *emuStats) check(outs []outcome) {
	s.attempted += len(outs)
	if s.golden != nil && len(s.golden) != len(outs) {
		logf("check: golden has %d runs, the job %d", len(s.golden), len(outs))
		s.failed += len(outs)
		return
	}
	for i, o := range outs {
		switch {
		case o.bad != "":
			logf("check: run %d: %s", i, o.bad)
		case s.golden != nil && rowDigest(o.row) != s.golden[i]:
			logf("check: run %d: row %q does not match the golden", i, o.row)
		case s.first != nil && o.row != s.first[i].row:
			logf("check: run %d: row %q differs from the first job's %q", i, o.row, s.first[i].row)
		default:
			continue
		}
		s.failed++
	}
	if s.first == nil {
		s.first = outs
	}
}

func (s *emuStats) addJob(outs []outcome, wall, cpu time.Duration, doneAt []time.Duration) {
	s.check(outs)
	s.runStats.addJob(len(outs), wall, cpu, durationsMs(doneAt))
}

func (s *emuStats) result(e *env, setup float64) (*result, error) {
	if e.writeGolden {
		if err := writeGolden(e, s.name, s.first); err != nil {
			return nil, err
		}
	}
	res := s.runStats.result(setup)
	res.Digests = map[string]string{"rows": rowsDigest(s.first)}
	return res, nil
}

// emuSetup times launches of this binary doing nothing: exec, runtime and
// package initialisation of the emulator, exit. The runs themselves build
// their topologies inside the timed cells.
func emuSetup(e *env) (float64, error) {
	ds, err := timeLaunches(setupLaunches, e.self, nil, os.DevNull, probeEnv+"=1")
	if err != nil {
		return 0, err
	}
	return median(durationsMs(ds)) / 1e3, nil
}

// resetPeakRSS restarts this process's VmHWM at its current RSS, so the
// next reading is the peak of what ran in between; without it (not Linux)
// readings are the process's peak so far.
func resetPeakRSS() {
	if f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0); err == nil {
		_, _ = f.WriteString("5") // best effort, as documented above
		f.Close()
	}
}

func peakRSSMB() float64 { return float64(vmHWMKB("self")) / 1024 }

// cpuTime is this process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runSweepPaper runs testbed.SweepCheckpointed serially, back to back for
// the measuring time. A verdict is a finished run; its latency runs from
// the start of the sweep to the run's Progress call.
func runSweepPaper(e *env) (*result, error) {
	s, err := newEmuStats(e, "sweep-paper")
	if err != nil {
		return nil, err
	}
	if e.trace {
		return emuTraced(e, s, sweepCells(e))
	}
	setup, err := emuSetup(e)
	if err != nil {
		return nil, err
	}
	err = repeat(e.seconds, func() error {
		opt := sweepOptions(e)
		outs := make([]outcome, opt.Total())
		for i := range outs {
			outs[i] = outcome{row: discardRow}
		}
		var doneAt []time.Duration
		resetPeakRSS()
		cpu0, start := cpuTime(), time.Now()
		opt.Progress = func(int, int) {
			doneAt = append(doneAt, time.Since(start))
			s.peakMB = append(s.peakMB, peakRSSMB())
			resetPeakRSS()
		}
		// Stream follows Progress for the same run.
		opt.Stream = func(r *testbed.Result) { outs[len(doneAt)-1] = outcomeOf(r, nil) }
		if _, err := testbed.SweepCheckpointed(opt); err != nil {
			return err
		}
		s.addJob(outs, time.Since(start), cpuTime()-cpu0, doneAt)
		return nil
	})
	if err != nil {
		return nil, err
	}
	logf("%d sweeps of %d runs", len(s.rate), len(sweepCells(e)))
	return s.result(e, setup)
}

// crossCheckEvery picks the cells-self runs whose capture is re-analysed
// through the pcap path in the first job.
const crossCheckEvery = 9

// runCellsSelf runs the self-induced grid with testbed.Run, back to back
// for the measuring time. Only the runs are timed; a verdict's latency is
// the timed work from the start of the job to the end of its run.
func runCellsSelf(e *env) (*result, error) {
	s, err := newEmuStats(e, "cells-self")
	if err != nil {
		return nil, err
	}
	cells := selfCells(e)
	if e.trace {
		return emuTraced(e, s, cells)
	}
	setup, err := emuSetup(e)
	if err != nil {
		return nil, err
	}
	err = repeat(e.seconds, func() error {
		outs := make([]outcome, len(cells))
		doneAt := make([]time.Duration, len(cells))
		var wall, cpu time.Duration
		for i, cfg := range cells {
			var capt *netem.Capture
			if s.first == nil && i%crossCheckEvery == 0 {
				cfg.Capture = func(x *netem.Capture) { capt = x }
			}
			resetPeakRSS()
			cpu0, start := cpuTime(), time.Now()
			res, err := testbed.Run(cfg)
			wall += time.Since(start)
			cpu += cpuTime() - cpu0
			doneAt[i] = wall
			s.peakMB = append(s.peakMB, peakRSSMB())
			outs[i] = outcomeOf(res, err)
			if capt != nil && err == nil && outs[i].bad == "" {
				if err := crossCheck(capt, res); err != nil {
					outs[i].bad = err.Error()
				}
			}
		}
		s.addJob(outs, wall, cpu, doneAt)
		return nil
	})
	if err != nil {
		return nil, err
	}
	logf("%d jobs of %d runs", len(s.rate), len(cells))
	return s.result(e, setup)
}

// maxLedgerFlows caps the captures an emulator workload's traced run
// renders for its trace-processing half.
const maxLedgerFlows = 32

// emuTraced is the traced run of an emulator workload: the emulator half
// of the ledger over its cells (whose rows are checked as in an untraced
// run), then the trace-processing half over their captures rendered as
// one pcap.
func emuTraced(e *env, s *emuStats, cells []testbed.Config) (*result, error) {
	tr := newTracer(e)
	m := map[string]float64{}
	outs := make([]outcome, len(cells))
	var captured []base
	keepEvery := max(1, len(cells)/maxLedgerFlows)
	err := emuLedger(tr, cells, m, func(i int, capt *netem.Capture, res *testbed.Result, err error) {
		outs[i] = outcomeOf(res, err)
		if capt == nil || i%keepEvery != 0 {
			return
		}
		if b, err := newBase(fmt.Sprint(i), capt); err == nil {
			captured = append(captured, b)
		}
	})
	if err != nil {
		return nil, err
	}
	s.check(outs)

	flows := sequentialFlows(rand.New(rand.NewSource(e.seed)), captured)
	path, err := inputPath(e, s.name)
	if err != nil {
		return nil, err
	}
	in, err := writeInput(path, captured, flows)
	if err != nil {
		return nil, err
	}
	defer os.Remove(in.Path)
	f, err := os.Open(in.Path)
	if err != nil {
		return nil, err
	}
	r, err := runProc(e.ccsig, serveArgs(e), f, nil)
	f.Close()
	if err != nil {
		return nil, err
	}
	pm, err := pcapLedger(tr, e.model, in.Path, in.Rendered.Records, false, r)
	if err != nil {
		return nil, err
	}
	for k, v := range pm {
		m[k] = v
	}
	res := s.runStats.result(0)
	res.Metrics, res.Spans = m, tr.spans
	res.Digests = map[string]string{"rows": rowsDigest(outs), "input": in.Digest}
	return res, nil
}

func goldenPath(e *env, name string) string {
	return filepath.Join(e.root, "bench", "testdata", fmt.Sprintf("%s-seed%d.golden", name, e.seed))
}

// rowDigest is the first 16 hex digits of a row's sha256.
func rowDigest(row string) string {
	sum := sha256.Sum256([]byte(row))
	return hex.EncodeToString(sum[:8])
}

func rowsDigest(outs []outcome) string {
	h := sha256.New()
	for _, o := range outs {
		fmt.Fprintln(h, o.row)
	}
	return hexSum(h)
}

// loadGolden reads a golden file: one "<run> <row digest>" line per run.
func loadGolden(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		idx, dig, ok := strings.Cut(sc.Text(), " ")
		if !ok || idx != fmt.Sprint(len(out)) {
			return nil, fmt.Errorf("%s: bad line %q", path, sc.Text())
		}
		out = append(out, dig)
	}
	return out, sc.Err()
}

// writeGolden records the rows of the first job as this seed's golden.
func writeGolden(e *env, name string, outs []outcome) error {
	if e.seed != 1 && e.seed != 2 {
		return fmt.Errorf("goldens are kept for seeds 1 and 2 only, not %d", e.seed)
	}
	var b strings.Builder
	for i, o := range outs {
		if o.bad != "" {
			return fmt.Errorf("run %d failed (%s); not writing a golden", i, o.bad)
		}
		fmt.Fprintf(&b, "%d %s\n", i, rowDigest(o.row))
	}
	path := goldenPath(e, name)
	logf("writing %s", path)
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
