package mlab

import (
	"fmt"
	"math/rand"
	"time"

	"tcpsig/internal/checkpoint"
)

// Period distinguishes the two Dispute2014 timeframes.
type Period int

// Periods.
const (
	JanFeb Period = iota // during the Cogent peering dispute
	MarApr               // after resolution
)

func (p Period) String() string {
	if p == JanFeb {
		return "Jan-Feb"
	}
	return "Mar-Apr"
}

// Site is one M-Lab server location within a transit ISP.
type Site struct {
	Transit string
	City    string
}

// DisputeSites are the paper's three (transit, city) combinations.
var DisputeSites = []Site{
	{Transit: "Cogent", City: "LAX"},
	{Transit: "Cogent", City: "LGA"},
	{Transit: "Level3", City: "ATL"},
}

// DisputeISPs are the four access ISPs studied.
var DisputeISPs = []string{"Comcast", "TimeWarner", "Verizon", "Cox"}

// Affected reports whether a (site, ISP, period) cell suffered the
// interconnect congestion of the 2014 dispute: Cogent paths to everyone
// except Cox (which peered directly with Netflix), during Jan-Feb only.
func Affected(site Site, isp string, period Period) bool {
	return site.Transit == "Cogent" && isp != "Cox" && period == JanFeb
}

// PeakHour reports whether local hour h is in the paper's peak window
// (4 PM to midnight).
func PeakHour(h int) bool { return h >= 16 }

// OffPeakHour reports whether h is in the paper's off-peak window (1 AM to
// 8 AM).
func OffPeakHour(h int) bool { return h >= 1 && h <= 8 }

// planDist is the service-plan distribution used for synthetic clients,
// loosely following 2014 US broadband tiers.
var planDist = []struct {
	Mbps float64
	P    float64
}{
	{10, 0.20},
	{20, 0.35},
	{25, 0.15},
	{50, 0.20},
	{100, 0.10},
}

func samplePlan(rng *rand.Rand) float64 {
	u := rng.Float64()
	acc := 0.0
	for _, pd := range planDist {
		acc += pd.P
		if u <= acc {
			return pd.Mbps
		}
	}
	return planDist[len(planDist)-1].Mbps
}

// diurnalLoad is the normalized interconnect utilization by hour of day:
// near-idle overnight, ramping through the afternoon, peaking in the
// evening. It shapes both the congested-cell intensity and the background
// noise probability.
func diurnalLoad(hour int) float64 {
	switch {
	case hour >= 1 && hour <= 7:
		return 0.10
	case hour >= 8 && hour <= 11:
		return 0.35
	case hour >= 12 && hour <= 15:
		return 0.55
	case hour >= 16 && hour <= 19:
		return 0.85
	default: // 20-24, 0
		return 1.0
	}
}

// DisputeOptions configures dataset generation.
type DisputeOptions struct {
	// TestsPerCell is the number of NDT tests per (site, ISP, period,
	// hour) cell.
	TestsPerCell int

	// Hours restricts which hours are generated (nil = all 24).
	Hours []int

	// Sites and ISPs restrict the grid (nil = the paper's full sets).
	Sites []Site
	ISPs  []string

	// Duration shortens the per-test length for fast runs (default 10s).
	Duration time.Duration

	// MaxCongFlows is the cross-traffic concurrency at full load
	// (default 28, which drives per-flow interconnect share well below
	// typical plans at peak).
	MaxCongFlows int

	// Seed drives the whole dataset deterministically.
	Seed int64

	// Progress, when non-nil, is called after every test, always in test
	// order and never concurrently, regardless of Workers.
	Progress func(done, total int)

	// Workers is the number of NDT tests emulated concurrently. 0 or 1
	// runs serially; negative means GOMAXPROCS. The dataset is
	// byte-identical at every worker count: all shared-rng draws happen
	// in a serial planning pass, and results are collected in test order.
	Workers int

	// Checkpoint, when non-nil with a Dir, persists completed chunks of
	// the campaign and lets Dispute2014 resume from them (see
	// internal/checkpoint).
	Checkpoint *checkpoint.Spec
}

func (o DisputeOptions) withDefaults() DisputeOptions {
	if o.TestsPerCell == 0 {
		o.TestsPerCell = 2
	}
	if o.Hours == nil {
		o.Hours = make([]int, 24)
		for i := range o.Hours {
			o.Hours[i] = i
		}
	}
	if o.Sites == nil {
		o.Sites = DisputeSites
	}
	if o.ISPs == nil {
		o.ISPs = DisputeISPs
	}
	if o.Duration == 0 {
		o.Duration = 10 * time.Second
	}
	if o.MaxCongFlows == 0 {
		o.MaxCongFlows = 28
	}
	return o
}

// Total returns how many tests the options will generate.
func (o DisputeOptions) Total() int {
	o = o.withDefaults()
	return len(o.Sites) * len(o.ISPs) * 2 * len(o.Hours) * o.TestsPerCell
}

// DisputeTest is one generated NDT measurement with its cell coordinates.
type DisputeTest struct {
	Site     Site
	ISP      string
	Period   Period
	Hour     int
	PlanMbps float64

	// Congested records the ground truth: whether the interconnect was
	// congested during this test.
	Congested bool

	Result *NDTResult
}

// disputeSpec is one planned NDT test: its cell coordinates plus the path
// parameters, with every shared-rng draw already resolved.
type disputeSpec struct {
	test DisputeTest // Result still nil
	path PathParams
}

// planDispute2014 walks the grid serially, consuming the shared rng in
// exactly the order the historical generator did and assigning each test
// the seed the old `seed++` counter gave it (base+1+index in nesting
// order). All randomness is resolved here; executing the planned tests is
// then embarrassingly parallel.
func planDispute2014(opt DisputeOptions) []disputeSpec {
	rng := rand.New(rand.NewSource(opt.Seed))
	specs := make([]disputeSpec, 0, opt.Total())
	for _, site := range opt.Sites {
		for _, isp := range opt.ISPs {
			for _, period := range []Period{JanFeb, MarApr} {
				for _, hour := range opt.Hours {
					for k := 0; k < opt.TestsPerCell; k++ {
						load := diurnalLoad(hour)
						cong := 0
						if Affected(site, isp, period) {
							// Dispute congestion kicks in once the diurnal
							// load crosses the link's spare capacity.
							if load >= 0.5 {
								cong = int(float64(opt.MaxCongFlows) * load)
							}
						}
						if cong == 0 {
							// Background transient congestion, more
							// likely at peak.
							if rng.Float64() < 0.04+0.08*load {
								cong = 4 + rng.Intn(opt.MaxCongFlows)
							}
						}
						plan := samplePlan(rng)
						specs = append(specs, disputeSpec{
							test: DisputeTest{
								Site:      site,
								ISP:       isp,
								Period:    period,
								Hour:      hour,
								PlanMbps:  plan,
								Congested: cong > 0,
							},
							path: PathParams{
								AccessMbps:    plan,
								AccessLatency: time.Duration(10+rng.Intn(30)) * time.Millisecond,
								AccessBuffer:  time.Duration(40+rng.Intn(120)) * time.Millisecond,
								CongFlows:     cong,
								Duration:      opt.Duration,
								Seed:          opt.Seed + 1 + int64(len(specs)),
							},
						})
					}
				}
			}
		}
	}
	return specs
}

// ndtRecord is the persisted form of one executed NDT test: its result,
// or its error reduced to a string. It rides inside checkpoint chunk
// artifacts, so it must round-trip losslessly through JSON.
type ndtRecord struct {
	Res *NDTResult `json:"res,omitempty"`
	Err string     `json:"err,omitempty"`
}

// disputeIdentity describes the campaign plan for the checkpoint
// manifest: everything that shapes the test list, nothing transient.
func disputeIdentity(o DisputeOptions) string {
	return fmt.Sprintf("mlab.Dispute2014 v1 seed=%d percell=%d sites=%v isps=%v hours=%v dur=%s cong=%d",
		o.Seed, o.TestsPerCell, o.Sites, o.ISPs, o.Hours, o.Duration, o.MaxCongFlows)
}

// Dispute2014 synthesizes the dataset. Affected cells get diurnal
// interconnect congestion; every cell also gets occasional transient
// congestion episodes whose probability scales with the diurnal load,
// modeling the background noise of a crowdsourced dataset. Tests execute
// across opt.Workers concurrently with byte-identical output at every
// worker count; with opt.Checkpoint set, completed chunks persist on
// disk and a resumed run replays them instead of recomputing.
func Dispute2014(opt DisputeOptions) ([]DisputeTest, error) {
	opt = opt.withDefaults()
	specs := planDispute2014(opt)
	total := len(specs)
	out := make([]DisputeTest, 0, total)
	err := checkpoint.Run(opt.Checkpoint, disputeIdentity(opt), total, opt.Workers,
		func(i int) ndtRecord {
			res, err := RunNDT(specs[i].path)
			if err != nil {
				return ndtRecord{Err: err.Error()}
			}
			return ndtRecord{Res: res}
		},
		func(i int, v ndtRecord) {
			if opt.Progress != nil {
				opt.Progress(i+1, total)
			}
			if v.Res == nil {
				return
			}
			t := specs[i].test
			t.Result = v.Res
			out = append(out, t)
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DiurnalThroughput aggregates mean NDT throughput (Mbps) by hour for one
// (site, ISP, period) combination — the Figure 5 series.
func DiurnalThroughput(tests []DisputeTest, site Site, isp string, period Period) map[int]float64 {
	sum := make(map[int]float64)
	n := make(map[int]int)
	for _, t := range tests {
		if t.Site != site || t.ISP != isp || t.Period != period {
			continue
		}
		sum[t.Hour] += t.Result.ThroughputBps / 1e6
		n[t.Hour]++
	}
	out := make(map[int]float64, len(sum))
	for h, s := range sum {
		out[h] = s / float64(n[h])
	}
	return out
}

// PaperLabel applies the paper's coarse labeling (§4.1) and reports whether
// the test is usable: peak-hour Jan-Feb tests from affected (site, ISP)
// pairs are labeled external, off-peak Mar-Apr tests self-induced,
// everything else is discarded.
func PaperLabel(t *DisputeTest) (label int, ok bool) {
	switch {
	case t.Period == JanFeb && PeakHour(t.Hour) && Affected(t.Site, t.ISP, t.Period):
		return 1, true // external
	case t.Period == MarApr && OffPeakHour(t.Hour):
		return 0, true // self-induced
	default:
		return 0, false
	}
}
