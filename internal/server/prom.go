package server

import (
	"fmt"
	"sort"
	"strings"
)

// Exposition builds a Prometheus text exposition (format 0.0.4). Both
// daemons' registries render through it — hand-rolled, since the repo
// takes no dependencies.
type Exposition struct {
	b strings.Builder
}

// String returns the exposition written so far.
func (x *Exposition) String() string { return x.b.String() }

func (x *Exposition) family(name, help, typ string) {
	fmt.Fprintf(&x.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Gauge writes one unlabelled integer gauge.
func (x *Exposition) Gauge(name, help string, v int64) {
	x.family(name, help, "gauge")
	fmt.Fprintf(&x.b, "%s %d\n", name, v)
}

// GaugeFloat writes one unlabelled float gauge.
func (x *Exposition) GaugeFloat(name, help string, v float64) {
	x.family(name, help, "gauge")
	fmt.Fprintf(&x.b, "%s %g\n", name, v)
}

// Counter writes one unlabelled counter.
func (x *Exposition) Counter(name, help string, v uint64) {
	x.family(name, help, "counter")
	fmt.Fprintf(&x.b, "%s %d\n", name, v)
}

// Labelled writes one family of type typ with a sample per key of
// vals, labelled label=key, in key order.
func Labelled[V int | uint64 | float64](x *Exposition, typ, name, help, label string, vals map[string]V) {
	x.family(name, help, typ)
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&x.b, "%s{%s=%q} %v\n", name, label, k, vals[k])
	}
}

// Histogram writes h as one histogram family.
func (x *Exposition) Histogram(name, help string, h *Histogram) {
	x.family(name, help, "histogram")
	for i, ub := range h.bounds {
		fmt.Fprintf(&x.b, "%s_bucket{le=%q} %d\n", name, formatBound(ub), h.counts[i])
	}
	fmt.Fprintf(&x.b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.total)
	fmt.Fprintf(&x.b, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(&x.b, "%s_count %d\n", name, h.total)
}

// Histogram is a fixed-bucket Prometheus histogram. It has no lock;
// its registry's lock guards it.
type Histogram struct {
	bounds []float64
	counts []uint64
	sum    float64
	total  uint64
}

// NewHistogram returns a histogram with the given bucket upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds))}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i]++
		}
	}
	h.sum += v
	h.total++
}

func formatBound(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", v), "0"), ".")
}
