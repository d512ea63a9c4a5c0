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
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
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

// durationBounds is the default bound set for block/latency histograms
// (1µs … 10s). It is an array so that DurationCounts has a constant
// size, and it is in nanoseconds so that DurationCounts.Observe
// compares integers: changing the table changes both.
var durationBounds = [...]time.Duration{
	time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond,
	time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	time.Second, 10 * time.Second,
}

// DurationBuckets is durationBounds in seconds, the bounds Histogram
// takes.
var DurationBuckets = func() []float64 {
	b := make([]float64, len(durationBounds))
	for i, d := range durationBounds {
		b[i] = d.Seconds()
	}
	return b
}()

// DurationCounts is a DurationBuckets histogram kept as plain counts,
// for an owner that updates it under a lock it already holds and has a
// Collector read it at scrape.
type DurationCounts [len(durationBounds) + 1]int64

// Observe counts one duration into the first bucket whose bound it
// does not exceed, and returns that bucket's index.
func (c *DurationCounts) Observe(d time.Duration) int {
	i := 0
	for i < len(durationBounds) && d > durationBounds[i] {
		i++
	}
	c[i]++
	return i
}

// Sample renders c as the histogram series name{labels}, whose
// durations add up to total.
func (c *DurationCounts) Sample(name string, total time.Duration, labels []Label) Sample {
	s := Sample{Name: name, Kind: KindHistogram, Labels: labels, Sum: total.Seconds()}
	s.Buckets, s.Count = cumulative(DurationBuckets, func(i int) int64 { return c[i] })
	return s
}

// cumulative renders per-bucket counts as cumulative Buckets, the last
// one +Inf, and returns their total.
func cumulative(bounds []float64, count func(i int) int64) ([]Bucket, int64) {
	out := make([]Bucket, len(bounds)+1)
	cum := int64(0)
	for i := range out {
		cum += count(i)
		out[i] = Bucket{UpperBound: math.Inf(1), Count: cum}
		if i < len(bounds) {
			out[i].UpperBound = bounds[i]
		}
	}
	return out, cum
}

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

// series is one pushed, labeled child of a metric family: a histogram,
// or a counter or gauge.
type series struct {
	labels []Label
	val    interface{ Value() int64 }
	hist   *Histogram
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
	// collected marks a family the collector emits: its label sets are
	// the collector's, so pushed lookups get a detached instrument.
	collected bool
}

// Collector is a source of series the registry reads at scrape time
// instead of having them pushed: its owner keeps each count where it
// happens, under a lock it already holds, so counting writes to no
// shared instrument and registering pays no series lookup.
type Collector interface {
	// Collect emits every series the collector owns, once each, with
	// labels sorted by key. The registry calls it under its own lock,
	// so Collect must not call back into the registry.
	Collect(emit func(Sample))
}

// Registry is a named collection of instruments. Instrument lookup is
// get-or-create and safe for concurrent use; hot paths should look an
// instrument up once and keep the pointer.
type Registry struct {
	mu        sync.Mutex
	families  map[string]*family
	collector Collector
	// seriesLimit caps the distinct label sets per family (see
	// SetSeriesLimit); dropped counts series refused at the cap, and
	// warned remembers which families already logged the one-line
	// warning. scraped is the last scrape's series count.
	seriesLimit int
	dropped     int64
	warned      map[string]bool
	scraped     int
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
// caller a detached instrument. A collector's owner applies the cap
// to what it collects itself (see SeriesLimit). So exposition memory
// stays bounded and callers never fail.
func (r *Registry) SetSeriesLimit(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seriesLimit = n
	r.mu.Unlock()
}

// appendLabelKey renders labels (sorted by key) into a canonical map key.
func appendLabelKey(b []byte, labels []Label) []byte {
	for _, l := range labels {
		b = append(append(append(append(b, l.Key...), 0), l.Value...), 0)
	}
	return b
}

func sortedLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// family returns the named family, creating it. With r.mu held.
func (r *Registry) family(name string) *family {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, series: make(map[string]*series)}
		r.families[name] = f
	}
	return f
}

// refuse counts a label set refused at the cap of the family name,
// warning once per family. With r.mu held.
func (r *Registry) refuse(name string) {
	r.dropped++
	if !r.warned[name] {
		r.warned[name] = true
		fmt.Fprintf(os.Stderr,
			"obs: family %s hit the %d-series cardinality cap; further label sets are dropped\n",
			name, r.seriesLimit)
	}
}

// lookup returns the series for (name, labels), creating family and
// series as needed. A kind mismatch with an existing family, a family
// a collector emits, or a new label set beyond the cap, returns nil
// (the caller then hands out a detached instrument rather than
// corrupting the exposition).
func (r *Registry) lookup(name string, kind Kind, bounds []float64, labels []Label) *series {
	if r == nil {
		return nil
	}
	labels = sortedLabels(labels)
	key := string(appendLabelKey(nil, labels))
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name)
	if !f.typed {
		f.kind, f.bounds, f.typed = kind, bounds, true
	}
	if f.kind != kind || f.collected {
		return nil
	}
	s := f.series[key]
	if s == nil {
		if r.seriesLimit > 0 && len(f.series) >= r.seriesLimit {
			r.refuse(name)
			return nil
		}
		s = &series{labels: labels}
		switch kind {
		case KindHistogram:
			s.hist = newHistogram(f.bounds)
		case KindCounter:
			s.val = &Counter{}
		default:
			s.val = &Gauge{}
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter registered under name with the given
// labels, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if s := r.lookup(name, KindCounter, nil, labels); s != nil {
		return s.val.(*Counter)
	}
	return &Counter{} // detached: kind mismatch, collected family, cardinality cap, or nil registry
}

// Gauge returns the gauge registered under name with the given labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if s := r.lookup(name, KindGauge, nil, labels); s != nil {
		return s.val.(*Gauge)
	}
	return &Gauge{}
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
	r.family(name).help = text
}

// SetCollector makes c the registry's collector, whose series it reads
// at every scrape. A registry has one, set by the network that owns it.
func (r *Registry) SetCollector(c Collector) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collector = c
	r.mu.Unlock()
}

// SeriesLimit returns the series cap in force (0: none). The collector's
// owner applies it to what it collects, and counts what it refuses
// through Drop.
func (r *Registry) SeriesLimit() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return max(r.seriesLimit, 0)
}

// Drop counts one series set of the family name that the collector's
// owner refused at the cap into dpn_obs_dropped_series_total, warning
// once per family, as a pushed lookup past the cap does.
func (r *Registry) Drop(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.refuse(name)
	r.mu.Unlock()
}

// Samples returns a point-in-time snapshot of every series, pushed and
// collected, sorted by metric name and then label key, suitable for
// building summary tables.
func (r *Registry) Samples() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, r.scraped)
	if r.collector != nil {
		r.collector.Collect(func(s Sample) {
			f := r.family(s.Name)
			if !f.typed {
				f.kind, f.typed = s.Kind, true
			}
			if f.kind == s.Kind {
				f.collected = true
				out = append(out, s)
			}
		})
	}
	for _, f := range r.families {
		if f.collected {
			continue // a pushed series made before the collector emitted would duplicate one
		}
		for _, s := range f.series {
			sm := Sample{Name: f.name, Kind: f.kind, Labels: s.labels}
			if s.hist != nil {
				sm.Sum, sm.Count = s.hist.Sum(), s.hist.Count()
				sm.Buckets, _ = cumulative(s.hist.bounds, func(i int) int64 { return s.hist.counts[i].Load() })
			} else {
				sm.Value = s.val.Value()
			}
			out = append(out, sm)
		}
	}
	// The cardinality guard's drop count is materialized as a synthetic
	// series so scrapes surface the data loss itself.
	if r.dropped > 0 {
		out = append(out, Sample{Name: "dpn_obs_dropped_series_total", Kind: KindCounter, Value: r.dropped})
	}
	// Sort by index: a Sample is too large to swap cheaply.
	order := make([]int32, len(out))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int {
		a, b := &out[i], &out[j]
		if a.Name != b.Name { // equal names are mostly one string: != is then cheap
			return strings.Compare(a.Name, b.Name)
		}
		return slices.CompareFunc(a.Labels, b.Labels, func(x, y Label) int {
			if x == y {
				return 0
			}
			return cmp.Or(strings.Compare(x.Key, y.Key), strings.Compare(x.Value, y.Value))
		})
	})
	r.scraped = len(out)
	sorted := make([]Sample, len(out))
	for k, i := range order {
		sorted[k] = out[i]
	}
	return sorted
}
