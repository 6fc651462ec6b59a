package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"tcpsig/internal/testbed"
)

const (
	longFlowSpan  = 10 * time.Second // the long input's flows start within it
	setupLaunches = 25
	maxGenLag     = 20 * time.Millisecond
	genTick       = 500 * time.Microsecond
)

func serveArgs(e *env) []string {
	return []string{"serve", "-model", e.model, "-server", serverIPString}
}

func classifyArgs(e *env, path string) []string {
	return []string{"classify", "-json", "-model", e.model, "-server", serverIPString, path}
}

// inputPath names a generated file; the pid keeps concurrent runs apart.
func inputPath(e *env, name string) (string, error) {
	dir := filepath.Join(e.work, "inputs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.pcap", name, e.seed, os.Getpid())), nil
}

// pcapRun is the set-up shared by the pcap workloads.
type pcapRun struct {
	e      *env
	bases  []base
	in     *input
	flowOf map[string]int // flow index by NDJSON key
	empty  string         // header-only pcap, for launch timing
}

func (p *pcapRun) cleanup() {
	if p.in != nil {
		os.Remove(p.in.Path)
	}
	os.Remove(p.empty)
}

// newPcapRun loads the base library and renders the workload's input.
// serve-long and classify-batch share the "long" input for a seed.
func newPcapRun(e *env, shape string) (*pcapRun, error) {
	t0 := time.Now()
	bases, err := loadBases(e.size.bases)
	if err != nil {
		return nil, err
	}
	p := &pcapRun{e: e, bases: bases}
	rng := rand.New(rand.NewSource(e.seed))
	var flows []flowSpec
	switch shape {
	case "long":
		flows = longFlows(rng, bases, e.size.longFlows, e.size.longRecords, longFlowSpan)
	case "short":
		flows = shortFlows(rng, bases, int(e.size.shortRate*e.seconds.Seconds()), e.size.shortRate)
	}
	path, err := inputPath(e, shape)
	if err != nil {
		return nil, err
	}
	if p.in, err = writeInput(path, bases, flows); err != nil {
		return nil, err
	}
	p.flowOf = make(map[string]int, len(p.in.Keys))
	for i, k := range p.in.Keys {
		p.flowOf[k] = i
	}
	if p.empty, err = inputPath(e, "empty"); err != nil {
		p.cleanup()
		return nil, err
	}
	if err := writeHeaderOnly(p.empty); err != nil {
		p.cleanup()
		return nil, err
	}
	logf("input %s: %d flows, %d records, %.0f MB, generated in %v",
		shape, len(flows), p.in.Rendered.Records, float64(pcapHeaderBytes+p.in.Rendered.Records*recordBytes)/1e6,
		time.Since(t0).Round(time.Millisecond))
	return p, nil
}

// serve runs `ccsig serve` with the input file as stdin.
func (p *pcapRun) serve() (procRun, error) {
	f, err := os.Open(p.in.Path)
	if err != nil {
		return procRun{}, err
	}
	defer f.Close()
	return runProc(p.e.ccsig, serveArgs(p.e), f, nil)
}

// classify runs `ccsig classify -json` on the input file.
func (p *pcapRun) classify() (procRun, error) {
	return runProc(p.e.ccsig, classifyArgs(p.e, p.in.Path), nil, nil)
}

// closeIdx is the index of the record that ended the slow start of the
// flow with this NDJSON key, if there is one.
func (p *pcapRun) closeIdx(key string) (int, bool) {
	fi, ok := p.flowOf[key]
	if !ok || p.in.Rendered.CloseIdx[fi] < 0 {
		return 0, false
	}
	return p.in.Rendered.CloseIdx[fi], true
}

// setupSeconds times launches of the program on a header-only pcap.
func (p *pcapRun) setupSeconds(classify bool) (float64, error) {
	args := serveArgs(p.e)
	if classify {
		args = classifyArgs(p.e, p.empty)
	}
	ds, err := timeLaunches(setupLaunches, p.e.ccsig, args, p.empty)
	if err != nil {
		return 0, err
	}
	return median(durationsMs(ds)) / 1e3, nil
}

// jobStats accumulates the jobs of a pcap workload run.
type jobStats struct {
	runStats
	samples int // latency samples over all jobs
	last    procRun
}

// add checks one job's NDJSON against ref and records its costs.
// latency maps each output line to its latency, or reports false to
// leave the line out.
func (s *jobStats) add(p *pcapRun, r procRun, ref []byte, serveSummary bool, latency latencyFunc) error {
	c := checkVerdicts(p.in.Keys, r.Stdout, ref)
	if serveSummary {
		sum, err := parseServeSummary(r.Stderr)
		if err != nil {
			return err
		}
		if sum.Evicted != 0 || sum.Dropped != 0 {
			c.Failed = len(p.in.Keys)
			c.Problems = append(c.Problems, fmt.Sprintf("serve evicted %d flows and dropped %d records", sum.Evicted, sum.Dropped))
		}
	}
	for _, pr := range c.Problems {
		logf("check: %s", pr)
	}
	s.attempted += len(p.in.Keys)
	s.failed += c.Failed
	_, keys := ndjsonLines(r.Stdout)
	if len(keys) == 0 || len(keys) != len(r.LineAt) {
		return fmt.Errorf("%d verdict lines, %d timestamps", len(keys), len(r.LineAt))
	}
	var lat []float64
	for i, k := range keys {
		if d, ok := latency(i, k); ok {
			lat = append(lat, float64(d)/1e6)
		}
	}
	s.addJob(len(keys), r.Wall, r.CPU(), lat)
	s.peakMB = append(s.peakMB, float64(r.PeakRSSKB)/1024)
	s.samples += len(lat)
	s.last = r
	return nil
}

// repeat runs job back to back while another run, as long as the runs so
// far took on average, still fits in d; it runs job at least once.
func repeat(d time.Duration, job func() error) error {
	start := time.Now()
	for n := 1; ; n++ {
		if err := job(); err != nil {
			return err
		}
		el := time.Since(start)
		if el+el/time.Duration(n) > d {
			return nil
		}
	}
}

// latencyFunc gives an output line's verdict latency, or false to leave
// the line out.
type latencyFunc func(line int, key string) (time.Duration, bool)

// runServeLong runs `ccsig serve` with the long input file as stdin, back
// to back for the measuring time, each run as fast as serve reads. A
// verdict's latency runs from the moment serve's reads passed the record
// that ended the flow's slow start (its stdin offset, sampled) to the
// moment its line is read. Every run's NDJSON must match `ccsig classify
// -json` on the same bytes.
func runServeLong(e *env) (*result, error) {
	return closedLoop(e, false, func(p *pcapRun) (procRun, latencyFunc, error) {
		r, err := p.serve()
		return r, func(i int, key string) (time.Duration, bool) {
			c, ok := p.closeIdx(key)
			if !ok {
				return 0, false
			}
			return r.LineAt[i].Sub(r.readAt(int64(pcapHeaderBytes + (c+1)*recordBytes))), true
		}, err
	})
}

// runClassifyBatch runs `ccsig classify -json` on the long input file back
// to back for the measuring time. The whole input is there when a job
// starts, so a verdict's latency runs from the start of its job to the
// moment its line is read. Every run's NDJSON must match `ccsig serve` on
// the same bytes.
func runClassifyBatch(e *env) (*result, error) {
	return closedLoop(e, true, func(p *pcapRun) (procRun, latencyFunc, error) {
		r, err := p.classify()
		return r, func(i int, _ string) (time.Duration, bool) { return r.LineAt[i].Sub(r.Start), true }, err
	})
}

// closedLoop measures job on the long input, checked against the other
// program's output.
func closedLoop(e *env, batch bool, job func(*pcapRun) (procRun, latencyFunc, error)) (*result, error) {
	p, err := newPcapRun(e, "long")
	if err != nil {
		return nil, err
	}
	defer p.cleanup()
	refJob := p.classify
	if batch {
		refJob = p.serve
	}
	ref, err := refJob()
	if err != nil {
		return nil, err
	}
	setup, err := p.setupSeconds(batch)
	if err != nil {
		return nil, err
	}
	var s jobStats
	runJob := func() error {
		r, lat, err := job(p)
		if err != nil {
			return err
		}
		return s.add(p, r, ref.Stdout, !batch, lat)
	}
	if e.trace {
		err = runJob()
	} else {
		err = repeat(e.seconds, runJob)
	}
	if err != nil {
		return nil, err
	}
	logf("%d jobs, %d records and %d verdict latency samples each", len(s.rate), p.in.Rendered.Records, s.samples/len(s.rate))
	return p.finish(&s, setup, batch)
}

// finish builds the result: the end-to-end metrics, or in a traced run
// the ledger over the same input.
func (p *pcapRun) finish(s *jobStats, setup float64, batch bool) (*result, error) {
	res := s.result(setup)
	res.Digests = map[string]string{"input": p.in.Digest}
	if !p.e.trace {
		return res, nil
	}
	tr := newTracer(p.e)
	m, err := pcapLedger(tr, p.e.model, p.in.Path, p.in.Rendered.Records, batch, s.last)
	if err != nil {
		return nil, err
	}
	cells := make([]testbed.Config, len(p.e.size.bases))
	for i, c := range p.e.size.bases {
		cells[i] = c.config()
	}
	if err := emuLedger(tr, cells, m, nil); err != nil {
		return nil, err
	}
	res.Metrics, res.Spans = m, tr.spans
	return res, nil
}

// runServeShort feeds `ccsig serve` through a pipe at a fixed record rate
// for the measuring time. A verdict's latency runs from the due time of
// the record that ended its flow's slow start to the moment its line is
// read; flows cut before slow start ends get their verdict at EOF and are
// left out.
func runServeShort(e *env) (*result, error) {
	p, err := newPcapRun(e, "short")
	if err != nil {
		return nil, err
	}
	defer p.cleanup()
	ref, err := p.classify()
	if err != nil {
		return nil, err
	}
	setup, err := p.setupSeconds(false)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p.in.Path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var t0 time.Time
	var batches []batch
	r, err := runProc(e.ccsig, serveArgs(e), nil, func(w io.Writer) error {
		t0 = time.Now()
		var err error
		batches, err = openLoop(w, bufio.NewReaderSize(f, 1<<20), p.in.Rendered.Records, e.size.shortRate, t0)
		return err
	})
	if err != nil {
		return nil, err
	}
	var s jobStats
	err = s.add(p, r, ref.Stdout, true, func(i int, key string) (time.Duration, bool) {
		c, ok := p.closeIdx(key)
		if !ok {
			return 0, false
		}
		return r.LineAt[i].Sub(t0.Add(dueOffset(c, e.size.shortRate))), true
	})
	if err != nil {
		return nil, err
	}
	lag := genLagP99(batches)
	logf("generator: %d writes, lag p99 %.3f ms; %d verdict latency samples", len(batches), float64(lag)/1e6, s.samples)
	if lag > maxGenLag {
		logf("warning: generator lag p99 %v exceeds %v: this run's latencies are not valid", lag, maxGenLag)
	}
	return p.finish(&s, setup, false)
}

// batch is one open-loop write: records [First, First+N), the due offset
// of record First, and when the write returned, both from t0.
type batch struct {
	First, N int
	Due      time.Duration
	Done     time.Duration
}

// dueOffset is when record i is due at rate records/s.
func dueOffset(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// openLoop copies the pcap header and then n fixed-size records from src
// to w, record i due at t0 + i/rate. Every write carries all records due
// by then; a write that blocks makes the generator late, and the schedule
// does not move.
func openLoop(w io.Writer, src io.Reader, n int, rate float64, t0 time.Time) ([]batch, error) {
	var hdr [pcapHeaderBytes]byte
	if _, err := io.ReadFull(src, hdr[:]); err != nil {
		return nil, err
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	var out []batch
	var buf []byte
	for sent := 0; sent < n; {
		el := time.Since(t0)
		due := min(int(el.Seconds()*rate)+1, n)
		if due <= sent {
			time.Sleep(max(dueOffset(sent, rate)-el, genTick))
			continue
		}
		k := due - sent
		if cap(buf) < k*recordBytes {
			buf = make([]byte, k*recordBytes)
		}
		b := buf[:k*recordBytes]
		if _, err := io.ReadFull(src, b); err != nil {
			return out, err
		}
		if _, err := w.Write(b); err != nil {
			return out, err
		}
		out = append(out, batch{First: sent, N: k, Due: dueOffset(sent, rate), Done: time.Since(t0)})
		sent = due
	}
	return out, nil
}

// genLagP99 is the 99th percentile of how late each write finished
// relative to the due time of its first record.
func genLagP99(bs []batch) time.Duration {
	lags := make([]float64, len(bs))
	for i, b := range bs {
		lags[i] = float64(b.Done - b.Due)
	}
	return time.Duration(quantile(lags, 0.99))
}
