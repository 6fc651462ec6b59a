package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Registry is a per-run metrics namespace. Metric objects are created on
// first use and live for the run; lookups by name happen at registration
// or collection time, never per sample, so the per-sample cost of a
// counter increment or histogram observation is a few machine words.
//
// The registry is not goroutine-safe: the simulation is single-threaded
// and each run owns its registry, which is also what makes snapshots
// reproducible. Parallel sweeps give every run its own registry and fold
// them together with Merge on a single goroutine (see internal/parallel).
//
// The zero value is ready to use; NewRegistry remains for symmetry.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// BucketConflictCounter is the counter that records Histogram lookups
// whose buckets disagreed with the name's registered buckets. A nonzero
// value means some observations were filed into buckets their caller did
// not ask for.
const BucketConflictCounter = "obs.histogram_bucket_conflict"

// Counter returns the named monotonic counter, creating it on first use.
// A nil registry returns nil, which absorbs all updates.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		if r.counters == nil {
			r.counters = make(map[string]*Counter)
		}
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns nil, which absorbs all updates.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		if r.gauges == nil {
			r.gauges = make(map[string]*Gauge)
		}
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named fixed-bucket histogram, creating it with the
// given upper bounds on first use (buckets must be sorted ascending). A
// later call with *different* buckets still returns the registered
// histogram — the name owns its buckets — but the mismatch is recorded in
// the BucketConflictCounter so it cannot pass silently: the second
// caller's observations would otherwise land in buckets it never asked
// for. A nil registry returns nil, which absorbs all observations.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		if r.hists == nil {
			r.hists = make(map[string]*Histogram)
		}
		h = newHistogram(buckets)
		r.hists[name] = h
	} else if !equalBounds(h.bounds, buckets) {
		r.Counter(BucketConflictCounter).Inc()
	}
	return h
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v uint64 }

// Inc adds one. Safe on nil.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n. Safe on nil.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a settable float64.
type Gauge struct{ v float64 }

// Set replaces the value. Safe on nil.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Add shifts the value. Safe on nil.
func (g *Gauge) Add(d float64) {
	if g != nil {
		g.v += d
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram counts observations into fixed buckets. counts[i] tallies
// observations <= bounds[i]; the final slot is the +Inf overflow bucket.
type Histogram struct {
	bounds []float64
	counts []uint64
	count  uint64
	sum    float64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one sample. Safe on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Merge folds src into r, visiting metric names in sorted order so the
// operation is deterministic:
//
//   - counters add,
//   - histograms with identical buckets add bucket counts, totals and
//     sums; a bucket mismatch leaves r's histogram untouched and is
//     recorded in r's BucketConflictCounter,
//   - gauges take src's value (last-merge-wins, matching the overwrite
//     semantics of serial collection order).
//
// Merging per-run registries in run order reproduces a serial sweep's
// metric fold exactly when each run observes a given histogram at most
// once (the sweep aggregation pattern); with several observations per
// run, bucket counts and totals still match but a histogram's float sum
// may differ from the serial fold in the last bits, since addition is
// reassociated. Safe when either registry is nil (nil src is a no-op;
// merging into a nil r drops the data, like every other nil-registry
// update).
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	for _, name := range sortedNames(src.counters) {
		r.Counter(name).Add(src.counters[name].v)
	}
	for _, name := range sortedNames(src.gauges) {
		r.Gauge(name).Set(src.gauges[name].v)
	}
	for _, name := range sortedNames(src.hists) {
		sh := src.hists[name]
		h, ok := r.hists[name]
		if !ok {
			// First sight of this histogram: adopt src's buckets, then
			// fold below.
			h = r.Histogram(name, sh.bounds)
		} else if !equalBounds(h.bounds, sh.bounds) {
			r.Counter(BucketConflictCounter).Inc()
			continue
		}
		for i, c := range sh.counts {
			h.counts[i] += c
		}
		h.count += sh.count
		h.sum += sh.sum
	}
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LinearBuckets returns n upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// Metric is one entry of a registry snapshot.
type Metric struct {
	Name string
	Type string // "counter", "gauge" or "histogram"

	// Value holds the counter or gauge reading.
	Value float64

	// Histogram fields. Count doubles as the exact reading for counters,
	// which Value (a float64) cannot represent above 2^53; FromSnapshot
	// restores counters from it.
	Bounds []float64 `json:",omitempty"`
	Counts []uint64  `json:",omitempty"`
	Count  uint64    `json:",omitempty"`
	Sum    float64   `json:",omitempty"`
}

// Snapshot returns every metric sorted by (type, name), a stable order
// suitable for golden-file comparison. A nil registry yields nil.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := r.counters[name].v
		out = append(out, Metric{Name: name, Type: "counter", Value: float64(c), Count: c})
	}
	names = names[:0]
	for name := range r.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, Metric{Name: name, Type: "gauge", Value: r.gauges[name].v})
	}
	names = names[:0]
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := r.hists[name]
		out = append(out, Metric{
			Name: name, Type: "histogram",
			Bounds: h.bounds, Counts: h.counts, Count: h.count, Sum: h.sum,
		})
	}
	return out
}

// formatFloat renders v with the shortest exact decimal representation,
// which is deterministic across runs and platforms. Non-finite values are
// pinned to the spellings NaN, +Inf and -Inf (notably strconv would render
// positive infinity as "+Inf" but NaN sign-insensitively) so WriteText
// output stays parseable and golden-stable even when a metric goes
// non-finite — a divide-by-zero feature or an overflowed sum must corrupt
// one value, not the whole text artifact.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText writes the snapshot as sorted "type name value" lines;
// histograms carry count, sum and per-bucket cumulative-style counts.
func (r *Registry) WriteText(w io.Writer) error {
	for _, m := range r.Snapshot() {
		var err error
		switch m.Type {
		case "histogram":
			var b strings.Builder
			fmt.Fprintf(&b, "histogram %s count=%d sum=%s", m.Name, m.Count, formatFloat(m.Sum))
			for i, c := range m.Counts {
				bound := "+Inf"
				if i < len(m.Bounds) {
					bound = formatFloat(m.Bounds[i])
				}
				fmt.Fprintf(&b, " le=%s:%d", bound, c)
			}
			_, err = fmt.Fprintln(w, b.String())
		default:
			_, err = fmt.Fprintf(w, "%s %s %s\n", m.Type, m.Name, formatFloat(m.Value))
		}
		if err != nil {
			return err
		}
	}
	return nil
}
