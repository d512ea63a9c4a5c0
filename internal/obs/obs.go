// Package obs is the runtime observability layer of the process-network
// runtime: a zero-dependency metrics registry (atomic counters, gauges,
// and fixed-bucket histograms, with label support for per-channel,
// per-process, and per-node dimensions) plus a lightweight event tracer
// (a lock-free ring buffer of typed events with a Chrome trace_event
// JSON exporter).
//
// The paper's §3.5/§6.2 machinery — bounded scheduling and distributed
// deadlock detection — already depends on runtime introspection
// (blocked-reader/writer counts, generation counters, byte counters).
// This package turns that internal bookkeeping into a uniform,
// exportable subsystem: every instrument is a plain atomic that hot
// paths update through a cached pointer, and every instrument method is
// safe on a nil receiver, so uninstrumented components pay a single nil
// check.
package obs

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension attached to an instrument, e.g.
// {channel ab} or {node 127.0.0.1:7001}.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind distinguishes the instrument types of a registry.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing atomic count. All methods are
// nil-safe so uninstrumented call sites cost one branch.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add applies a delta.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Max raises the gauge to v if v is larger (high-water marks).
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution with atomic bucket counts.
// Bounds are upper bounds in ascending order; a final +Inf bucket is
// implicit.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Uint64  // float64 bits, CAS-updated
	count  atomic.Int64
}

// DurationBuckets is the default bound set for block/latency histograms,
// in seconds (1µs … 10s).
var DurationBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one measurement.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bucket is one cumulative histogram bucket in a Sample.
type Bucket struct {
	UpperBound float64 // +Inf for the last bucket
	Count      int64   // cumulative count of observations <= UpperBound
}

// Sample is a point-in-time reading of one series, as returned by
// Registry.Samples.
type Sample struct {
	Name   string
	Kind   Kind
	Labels []Label
	// Value holds the counter or gauge reading.
	Value int64
	// Sum, Count, and Buckets hold the histogram reading.
	Sum     float64
	Count   int64
	Buckets []Bucket
}

// Label returns the value of the named label, or "".
func (s Sample) Label(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// series is one labeled child of a metric family.
type series struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name string
	help string
	kind Kind
	// typed records whether kind is meaningful yet: Help may create a
	// family before the first instrument fixes its kind.
	typed  bool
	bounds []float64 // histogram families share bounds
	series map[string]*series
}

// Registry is a named collection of instruments. Instrument lookup is
// get-or-create and safe for concurrent use; hot paths should look an
// instrument up once and keep the pointer.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	// seriesLimit caps the distinct label sets per family (see
	// SetSeriesLimit); dropped counts series refused at the cap, and
	// warned remembers which families already logged the one-line
	// warning.
	seriesLimit int
	dropped     int64
	warned      map[string]bool
}

// DefaultSeriesLimit is the per-family label-set cap applied to new
// registries. High-cardinality label values (per-task IDs, peer
// addresses under churn) otherwise grow the exposition without bound.
const DefaultSeriesLimit = 256

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families:    make(map[string]*family),
		seriesLimit: DefaultSeriesLimit,
		warned:      make(map[string]bool),
	}
}

// SetSeriesLimit changes the per-family cap on distinct label sets
// (n <= 0 removes the cap). Lookups beyond the cap warn once per family
// on stderr, count into dpn_obs_dropped_series_total, and hand the
// caller a detached instrument, so exposition memory stays bounded and
// callers never fail.
func (r *Registry) SetSeriesLimit(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seriesLimit = n
	r.mu.Unlock()
}

// DroppedSeries reports how many series lookups were refused by the
// cardinality cap.
func (r *Registry) DroppedSeries() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// labelKey renders labels (sorted by key) into a canonical map key.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('\x00')
		b.WriteString(l.Value)
		b.WriteByte('\x00')
	}
	return b.String()
}

func sortedLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookup returns the series for (name, labels), creating family and
// series as needed. A kind mismatch with an existing family returns nil
// (the caller then hands out a detached instrument rather than
// corrupting the exposition).
func (r *Registry) lookup(name string, kind Kind, bounds []float64, labels []Label) *series {
	if r == nil {
		return nil
	}
	labels = sortedLabels(labels)
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, series: make(map[string]*series)}
		r.families[name] = f
	}
	if !f.typed {
		f.kind, f.bounds, f.typed = kind, bounds, true
	}
	if f.kind != kind {
		return nil
	}
	s := f.series[key]
	if s == nil {
		if r.seriesLimit > 0 && len(f.series) >= r.seriesLimit {
			r.dropped++
			if r.warned == nil {
				r.warned = make(map[string]bool)
			}
			if !r.warned[name] {
				r.warned[name] = true
				fmt.Fprintf(os.Stderr,
					"obs: family %s hit the %d-series cardinality cap; further label sets are dropped\n",
					name, r.seriesLimit)
			}
			return nil
		}
		s = &series{labels: labels}
		switch kind {
		case KindCounter:
			s.counter = &Counter{}
		case KindGauge:
			s.gauge = &Gauge{}
		case KindHistogram:
			s.hist = newHistogram(f.bounds)
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter registered under name with the given
// labels, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	s := r.lookup(name, KindCounter, nil, labels)
	if s == nil {
		return &Counter{} // detached: kind mismatch, cardinality cap, or nil registry
	}
	return s.counter
}

// Gauge returns the gauge registered under name with the given labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	s := r.lookup(name, KindGauge, nil, labels)
	if s == nil {
		return &Gauge{}
	}
	return s.gauge
}

// Histogram returns the histogram registered under name with the given
// labels. The bounds of the first registration win for the whole
// family; nil bounds select DurationBuckets.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DurationBuckets
	}
	s := r.lookup(name, KindHistogram, bounds, labels)
	if s == nil {
		return newHistogram(bounds)
	}
	return s.hist
}

// Help attaches exposition help text to the named metric family.
func (r *Registry) Help(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		f.help = text
	} else {
		r.families[name] = &family{name: name, help: text, series: make(map[string]*series)}
	}
}

// Samples returns a point-in-time snapshot of every series, sorted by
// metric name and then label key, suitable for building summary tables.
func (r *Registry) Samples() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var out []Sample
	for _, f := range fams {
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			sm := Sample{Name: f.name, Kind: f.kind, Labels: s.labels}
			switch f.kind {
			case KindCounter:
				sm.Value = s.counter.Value()
			case KindGauge:
				sm.Value = s.gauge.Value()
			case KindHistogram:
				sm.Sum = s.hist.Sum()
				sm.Count = s.hist.Count()
				cum := int64(0)
				for i := range s.hist.counts {
					cum += s.hist.counts[i].Load()
					ub := math.Inf(1)
					if i < len(s.hist.bounds) {
						ub = s.hist.bounds[i]
					}
					sm.Buckets = append(sm.Buckets, Bucket{UpperBound: ub, Count: cum})
				}
			}
			out = append(out, sm)
		}
	}
	// The cardinality guard's drop count is materialized as a synthetic
	// series so scrapes surface the data loss itself.
	if r.dropped > 0 {
		out = append(out, Sample{Name: "dpn_obs_dropped_series_total", Kind: KindCounter, Value: r.dropped})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
