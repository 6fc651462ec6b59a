package main

import (
	"testing"
)

// TestWorkloadsSmoke runs every workload end to end at a small size, and
// the traced run of one pcap and one emulator workload.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if trace && w.Name != "serve-short" && w.Name != "cells-self" {
				continue
			}
			name := w.Name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := w.Run(testEnv(t, w.Name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				for _, d := range defs {
					if _, ok := res.Metrics[d.Name]; !ok {
						t.Errorf("metric %s missing", d.Name)
					}
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
				}
				if trace && len(res.Spans) == 0 {
					t.Error("traced run recorded no spans")
				}
			})
		}
	}
}
