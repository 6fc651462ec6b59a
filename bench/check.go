package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
)

// verdictID is the identity part of one NDJSON verdict line.
type verdictID struct {
	SrcIP   string `json:"src_ip"`
	SrcPort uint16 `json:"src_port"`
	DstIP   string `json:"dst_ip"`
	DstPort uint16 `json:"dst_port"`
}

// ndjsonLines splits NDJSON output into lines and their flow keys; a line
// that does not parse gets the key "".
func ndjsonLines(out []byte) (lines []string, keys []string) {
	for _, l := range bytes.Split(out, []byte{'\n'}) {
		if len(l) == 0 {
			continue
		}
		var id verdictID
		key := ""
		if json.Unmarshal(l, &id) == nil {
			key = flowKey(id.SrcIP, id.SrcPort, id.DstIP, id.DstPort)
		}
		lines = append(lines, string(l))
		keys = append(keys, key)
	}
	return lines, keys
}

// checkResult counts the flows a run got wrong.
type checkResult struct {
	Failed   int
	Problems []string // the first few, for the log
}

func (c *checkResult) fail(format string, args ...any) {
	c.Failed++
	if len(c.Problems) < 5 {
		c.Problems = append(c.Problems, fmt.Sprintf(format, args...))
	}
}

// checkVerdicts checks one run's NDJSON (got) against the other program's
// output on the same bytes (want). Every generated flow must have exactly
// one line in each and the two lines must be identical; each flow breaking
// that, and each line for a flow that was never generated, counts once.
func checkVerdicts(flows []string, got, want []byte) checkResult {
	var c checkResult
	gotBy := byKey(got)
	wantBy := byKey(want)
	expected := make(map[string]bool, len(flows))
	for _, k := range flows {
		expected[k] = true
		g, w := gotBy[k], wantBy[k]
		switch {
		case len(g) != 1:
			c.fail("flow %s: %d verdicts, want 1", k, len(g))
		case len(w) != 1:
			c.fail("flow %s: %d reference verdicts, want 1", k, len(w))
		case g[0] != w[0]:
			c.fail("flow %s: verdict differs from reference:\n  got  %s\n  want %s", k, g[0], w[0])
		}
	}
	for k, ls := range gotBy {
		if !expected[k] {
			for range ls {
				c.fail("unexpected verdict for flow %q", k)
			}
		}
	}
	return c
}

func byKey(out []byte) map[string][]string {
	lines, keys := ndjsonLines(out)
	m := make(map[string][]string, len(lines))
	for i, k := range keys {
		m[k] = append(m[k], lines[i])
	}
	return m
}

var serveSummaryRE = regexp.MustCompile(`serve: records=(\d+) verdicts=(\d+) evicted=(\d+) ingest-dropped=(\d+)`)

// serveSummary is the counter line `ccsig serve` prints to stderr at exit.
type serveSummary struct {
	Records, Verdicts, Evicted, Dropped int
}

func parseServeSummary(stderr []byte) (serveSummary, error) {
	m := serveSummaryRE.FindSubmatch(stderr)
	if m == nil {
		return serveSummary{}, fmt.Errorf("no summary line in serve stderr: %q", stderr)
	}
	var v [4]int
	for i := range v {
		v[i], _ = strconv.Atoi(string(m[i+1]))
	}
	return serveSummary{v[0], v[1], v[2], v[3]}, nil
}
