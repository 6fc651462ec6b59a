package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"runtime"
	"time"

	"tcpsig"
	"tcpsig/internal/pcap"
	"tcpsig/internal/stream"
	"tcpsig/internal/telemetry"
)

// verdictJSON is the NDJSON verdict record shared by `ccsig serve` and
// `ccsig classify -json`. It carries only fields that are final the moment
// a flow's slow start ends, so a verdict emitted early by the streaming
// path encodes byte-identically to the same flow's batch verdict — the CI
// serve-vs-batch job diffs the two outputs with cmp.
type verdictJSON struct {
	SrcIP      string  `json:"src_ip"`
	SrcPort    uint16  `json:"src_port"`
	DstIP      string  `json:"dst_ip"`
	DstPort    uint16  `json:"dst_port"`
	Class      string  `json:"class"` // self-induced | external | unclassified
	Confidence float64 `json:"confidence"`
	Reason     string  `json:"reason,omitempty"`
	NormDiff   float64 `json:"normdiff"`
	CoV        float64 `json:"cov"`
	Samples    int     `json:"samples"`
	MinRTTMs   float64 `json:"min_rtt_ms"`
	MaxRTTMs   float64 `json:"max_rtt_ms"`

	SlowStartBytesAcked int64   `json:"slow_start_bytes_acked"`
	HasRetransmit       bool    `json:"has_retransmit"`
	FirstRetransmitMs   float64 `json:"first_retransmit_ms,omitempty"`

	Error string `json:"error,omitempty"`
}

// writeVerdictNDJSON encodes one flow verdict as a single NDJSON line.
func writeVerdictNDJSON(w io.Writer, fv tcpsig.FlowVerdict) error {
	v := fv.Verdict
	rec := verdictJSON{
		SrcIP:   fv.SrcIP,
		SrcPort: fv.SrcPort,
		DstIP:   fv.DstIP,
		DstPort: fv.DstPort,
		Class:   "unclassified",
	}
	if v.Class >= 0 {
		rec.Class = tcpsig.ClassName(v.Class)
		rec.Confidence = v.Confidence
		rec.NormDiff = v.Features.NormDiff
		rec.CoV = v.Features.CoV
		rec.Samples = v.Features.Samples
		rec.MinRTTMs = float64(v.Features.MinRTT) / 1e6
		rec.MaxRTTMs = float64(v.Features.MaxRTT) / 1e6
	}
	rec.Reason = string(v.Reason)
	if v.Flow != nil {
		rec.SlowStartBytesAcked = v.Flow.SlowStartBytesAcked
		rec.HasRetransmit = v.Flow.HasRetransmit
		rec.FirstRetransmitMs = float64(v.Flow.FirstRetransmitAt) / 1e6
	}
	if fv.Err != nil {
		rec.Error = fv.Err.Error()
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// serveIPv4 parses a dotted-quad address for direction orientation.
func serveIPv4(s string) (uint32, error) {
	addr, err := netip.ParseAddr(s)
	if err != nil || !addr.Is4() {
		return 0, fmt.Errorf("bad IPv4 %q", s)
	}
	b := addr.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
}

func serveCmd(args []string) {
	fs := newFlagSet("serve", "[-model model.json] -server IPv4 [-max-flows N] [-shards N] [-buffer N] [-replay] [-speed F] [-o out.ndjson] [-admin ADDR] [trace.pcap | -]")
	modelPath := fs.String("model", "", "model file from 'ccsig train' (default: train a quick model)")
	server := fs.String("server", "", "server IPv4 address (data sender) in the capture")
	maxFlows := fs.Int("max-flows", 1_000_000, "flow-table cap; least-recently-active flows beyond it are evicted unclassified (0 = unbounded)")
	shards := fs.Int("shards", 8, "flow-table lock shards")
	buffer := fs.Int("buffer", 0, "ingest buffer in records between the reader and the classifier, handed over in slabs of up to 256 (0 = 4096)")
	replay := fs.Bool("replay", false, "replay the capture at its original timing; records are dropped (and counted) under backpressure instead of stalling the clock")
	speed := fs.Float64("speed", 1, "replay speed multiplier, with -replay (2 = twice as fast)")
	out := fs.String("o", "-", "NDJSON verdict output path ('-' = stdout)")
	adminAddr := adminFlag(fs)
	fs.Parse(args)
	if *server == "" {
		badUsage(fs, "-server is required")
	}
	if fs.NArg() > 1 {
		badUsage(fs, "at most one input: a pcap path, or '-' for stdin (the default)")
	}
	if *speed <= 0 {
		badUsage(fs, "-speed must be positive")
	}
	ip, err := serveIPv4(*server)
	if err != nil {
		badUsage(fs, err.Error())
	}

	in := os.Stdin
	inName := "-"
	if fs.NArg() == 1 && fs.Arg(0) != "-" {
		inName = fs.Arg(0)
		f, err := os.Open(inName)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	var clf *tcpsig.Classifier
	if *modelPath != "" {
		clf, err = tcpsig.LoadFile(*modelPath)
	} else {
		fmt.Fprintln(os.Stderr, "no -model given; training a quick model on the emulated testbed...")
		clf, err = tcpsig.TrainOnTestbed(tcpsig.TrainTestbedOptions{Quick: true})
	}
	if err != nil {
		fatal(err)
	}

	// Verdict sink: stdout or a plain file. Verdicts are a stream, not an
	// artifact — a consumer tails them as they appear — so no atomic
	// staging here, unlike report outputs.
	w := io.Writer(os.Stdout)
	var outFile *os.File
	if *out != "-" {
		outFile, err = os.Create(*out)
		if err != nil {
			fatal(err)
		}
		w = outFile
	}
	bw := bufio.NewWriter(w)

	admin, err := telemetry.StartAdmin(*adminAddr)
	if err != nil {
		fatal(err)
	}
	defer admin.Close()

	var writeErr error
	verdicts := 0
	emit := func(res stream.FlowResult) {
		fv := tcpsig.FlowVerdict{
			SrcIP:   ipString4(uint32(res.Flow.SrcAddr)),
			SrcPort: uint16(res.Flow.SrcPort),
			DstIP:   ipString4(uint32(res.Flow.DstAddr)),
			DstPort: uint16(res.Flow.DstPort),
			Verdict: res.Verdict,
			Err:     res.Err,
		}
		if err := writeVerdictNDJSON(bw, fv); err != nil && writeErr == nil {
			writeErr = err
		}
		verdicts++
		// Stream progress has no known total: report done with total 0,
		// and /progress correctly omits rate-derived ETA fields.
		admin.RunDone("verdicts", verdicts, 0)
	}

	table := stream.NewTable(stream.Config{
		Classifier: clf.Core(),
		MaxFlows:   *maxFlows,
		Shards:     *shards,
		Emit:       emit,
		// Long-lived service: recycle per-flow trackers and table entries.
		// Safe because emit consumes Verdict.Flow inside the callback and
		// never retains it.
		Recycle: true,
	})
	// Without -replay, the reader loop and the pump's drain goroutine are
	// two stages of one pull-based pipeline. On one P a slab hand-off is a
	// goroutine switch; on more it is a wake-up on another core, and
	// throughput then swings with whether a second core happens to be
	// free. One P keeps serve's speed and CPU per record the same on a
	// busy machine as on an idle one. -replay keeps every P: its clock
	// must not wait for the classifier. Set after the model is loaded,
	// because training fans out.
	if !*replay {
		runtime.GOMAXPROCS(1)
	}
	pump := stream.NewPump(table, *buffer)
	// Verdicts are buffered while the classifier has records in hand and
	// written out as soon as it runs dry, so no verdict waits for input.
	pump.OnIdle(func() {
		if err := bw.Flush(); err != nil && writeErr == nil {
			writeErr = err
		}
	})
	admin.AttachMetrics(telemetry.CombinedMetrics(table.Metrics, pump.Metrics))

	rd := pcap.NewReader(in)
	var readErr error
	records := 0
	var prevAt time.Duration
	first := true
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = fmt.Errorf("%s: %w", inName, err)
			break
		}
		records++
		crec := pcap.RecordToCapture(rec, ip)
		// The pump hands records over in slabs; hand off the partial one
		// wherever this loop may stall, so its records are not held back.
		if *replay {
			if !first {
				if d := time.Duration(float64(crec.At-prevAt) / *speed); d > 0 {
					pump.Flush()
					time.Sleep(d)
				}
			}
			prevAt = crec.At
			first = false
			pump.Offer(crec)
		} else {
			pump.Feed(crec)
		}
		if rd.Buffered() == 0 {
			// The next read may block. Hand off the partial slab, and on
			// one P let the drain goroutine take it first: a goroutine
			// blocked in a read holds its P until the runtime's monitor
			// takes it back, which can be milliseconds later.
			pump.Flush()
			runtime.Gosched()
		}
	}
	pump.Close()
	table.Flush()
	if err := bw.Flush(); err != nil && writeErr == nil {
		writeErr = err
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil && writeErr == nil {
			writeErr = err
		}
	}

	fmt.Fprintf(os.Stderr, "serve: records=%d verdicts=%d evicted=%d ingest-dropped=%d\n",
		records, verdicts, table.EvictedFlows(), pump.Dropped())
	exit := 0
	if readErr != nil {
		fmt.Fprintln(os.Stderr, "ccsig serve:", readErr)
		exit = 1
	}
	if writeErr != nil {
		fmt.Fprintln(os.Stderr, "ccsig serve: writing verdicts:", writeErr)
		exit = 1
	}
	os.Exit(exit)
}

// ipString4 renders a 32-bit IPv4 address as a dotted quad.
func ipString4(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", ip>>24, ip>>16&0xff, ip>>8&0xff, ip&0xff)
}
