// Peering: detect an interconnect congestion event from crowdsourced-style
// measurements, Dispute2014-style. The example generates a small synthetic
// M-Lab dataset spanning a peering dispute (Cogent paths congested in
// Jan-Feb evenings, clean in Mar-Apr) and shows how the classifier's
// self-induced fraction exposes the event — and its resolution — without any
// knowledge of users' service plans.
package main

import (
	"fmt"
	"log"
	"time"

	"tcpsig"
	"tcpsig/internal/mlab"
)

func main() {
	fmt.Println("training classifier on the emulated testbed...")
	clf, err := tcpsig.TrainOnTestbed(tcpsig.TrainTestbedOptions{Quick: true, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("generating synthetic Dispute2014 measurements (Cogent/LAX)...")
	tests, err := mlab.Dispute2014(mlab.DisputeOptions{
		TestsPerCell: 2,
		Hours:        []int{3, 21}, // one off-peak, one peak hour
		Sites:        []mlab.Site{{Transit: "Cogent", City: "LAX"}},
		ISPs:         []string{"Comcast", "Cox"},
		Duration:     5 * time.Second,
		Seed:         99,
	})
	if err != nil {
		log.Fatal(err)
	}

	type cell struct{ self, n int }
	agg := map[string]*cell{}
	for i := range tests {
		t := &tests[i]
		if !t.Result.FeaturesValid {
			continue
		}
		v := clf.ClassifyFeatures(t.Result.Features)
		key := fmt.Sprintf("%-10s %s hour=%02d", t.ISP, t.Period, t.Hour)
		c := agg[key]
		if c == nil {
			c = &cell{}
			agg[key] = c
		}
		c.n++
		if v.Class == tcpsig.SelfInduced {
			c.self++
		}
	}

	fmt.Println("\nfraction of flows classified self-induced (plan-limited):")
	for _, isp := range []string{"Comcast", "Cox"} {
		for _, period := range []mlab.Period{mlab.JanFeb, mlab.MarApr} {
			for _, hour := range []int{3, 21} {
				key := fmt.Sprintf("%-10s %s hour=%02d", isp, period, hour)
				if c := agg[key]; c != nil && c.n > 0 {
					fmt.Printf("  %s  %.0f%% (n=%d)\n", key, 100*float64(c.self)/float64(c.n), c.n)
				}
			}
		}
	}
	fmt.Println("\nreading: Comcast@Jan-Feb hour=21 should stand out — those flows were")
	fmt.Println("bottlenecked by the congested Cogent interconnect, not their own plans.")
	fmt.Println("Cox (which peered directly) and Mar-Apr (post-resolution) stay high.")
}
