package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDesignRosterMatches keeps DESIGN.md's analyzer table, and the count
// in the sentence above it, equal to the analyzers slice, in order.
func TestDesignRosterMatches(t *testing.T) {
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	count := regexp.MustCompile("`internal/analysis` with (\\w+) analyzers:").FindStringSubmatch(doc)
	if count == nil {
		t.Fatal("DESIGN.md: no \"with N analyzers:\" sentence")
	}
	numbers := []string{"zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten"}
	if len(analyzers) >= len(numbers) || count[1] != numbers[len(analyzers)] {
		t.Errorf("DESIGN.md says %q analyzers, the roster has %d", count[1], len(analyzers))
	}

	// The table is the paragraph right after the count sentence.
	_, table, _ := strings.Cut(doc, count[0])
	table, _, _ = strings.Cut(strings.TrimLeft(table, "\n"), "\n\n")
	var names []string
	for _, m := range regexp.MustCompile("(?m)^\\| `(\\w+)` \\|").FindAllStringSubmatch(table, -1) {
		names = append(names, m[1])
	}
	var want []string
	for _, a := range analyzers {
		want = append(want, a.Name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("DESIGN.md table lists %v, the roster is %v", names, want)
	}
}
