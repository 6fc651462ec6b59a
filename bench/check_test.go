package main

import (
	"fmt"
	"strings"
	"testing"
)

func verdictLine(dstIP string, dstPort int, class string) string {
	return fmt.Sprintf(`{"src_ip":"198.51.100.10","src_port":80,"dst_ip":%q,"dst_port":%d,"class":%q,"confidence":1}`,
		dstIP, dstPort, class)
}

func TestCheckerCountsDoctoredAndMissingFlows(t *testing.T) {
	flows := []string{
		flowKey("198.51.100.10", 80, "11.0.0.1", 1001),
		flowKey("198.51.100.10", 80, "12.0.0.2", 1002),
		flowKey("198.51.100.10", 80, "13.0.0.3", 1003),
	}
	want := strings.Join([]string{
		verdictLine("11.0.0.1", 1001, "self-induced"),
		verdictLine("12.0.0.2", 1002, "external"),
		verdictLine("13.0.0.3", 1003, "external"),
	}, "\n") + "\n"

	// Same lines in another order: nothing fails.
	same := strings.Join([]string{
		verdictLine("13.0.0.3", 1003, "external"),
		verdictLine("11.0.0.1", 1001, "self-induced"),
		verdictLine("12.0.0.2", 1002, "external"),
	}, "\n") + "\n"
	if c := checkVerdicts(flows, []byte(same), []byte(want)); c.Failed != 0 {
		t.Fatalf("reordered output failed %d flows: %v", c.Failed, c.Problems)
	}

	// Flow 2 doctored, flow 3 missing, and a verdict for a flow never
	// generated.
	got := strings.Join([]string{
		verdictLine("11.0.0.1", 1001, "self-induced"),
		verdictLine("12.0.0.2", 1002, "self-induced"),
		verdictLine("14.0.0.4", 1004, "external"),
	}, "\n") + "\n"
	c := checkVerdicts(flows, []byte(got), []byte(want))
	if c.Failed != 3 {
		t.Fatalf("failed %d flows, want 3 (doctored, missing, unexpected): %v", c.Failed, c.Problems)
	}
}

func TestParseServeSummary(t *testing.T) {
	s, err := parseServeSummary([]byte("x\nserve: records=10 verdicts=2 evicted=1 ingest-dropped=3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s != (serveSummary{Records: 10, Verdicts: 2, Evicted: 1, Dropped: 3}) {
		t.Fatalf("parsed %+v", s)
	}
	if _, err := parseServeSummary([]byte("nothing")); err == nil {
		t.Fatal("no error for a missing summary")
	}
}
