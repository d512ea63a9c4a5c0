package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

// The registry's instruments are updated from every process goroutine
// of a network; this test (run under -race in make check) proves the
// counters, gauges, and histograms tolerate full concurrency and lose
// no updates.
func TestInstrumentsConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", L("op", "write"))
	g := r.Gauge("occupancy")
	h := r.Histogram("latency_seconds", []float64{0.25, 0.5, 0.75})

	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				c.Add(2)
				g.Add(1)
				h.Observe(float64(i%4) / 4)
				// Concurrent get-or-create of the same series must
				// return the same instrument.
				r.Counter("hits_total", L("op", "write")).Inc()
			}
		}()
	}
	wg.Wait()

	if got, want := c.Value(), int64(workers*perWorker*4); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Errorf("gauge = %d, want %d", got, workers*perWorker)
	}
	if got, want := h.Count(), int64(workers*perWorker); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	wantSum := float64(workers) * perWorker / 4 * (0 + 0.25 + 0.5 + 0.75)
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Errorf("histogram sum = %g, want %g", h.Sum(), wantSum)
	}
}

func TestCounterMonotonic(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
}

// Nil instruments are the "unobserved" fast path wired into pipes and
// ports; every method must be a no-op, not a panic.
func TestNilInstrumentsSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	var s *Scope
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	tr.Record(EvRead, "ch", "", 1)
	s.Record(EvRead, "ch", "", 1)
	s.Registry().Counter("x").Inc()
	s.SetNode("n")
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Count(EvRead) != 0 {
		t.Error("nil instruments must read as zero")
	}
}

// A name reused with a different kind must not corrupt the family; the
// caller gets a detached instrument instead.
func TestKindMismatchDetaches(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual_use").Inc()
	g := r.Gauge("dual_use")
	g.Set(42)
	samples := r.Samples()
	if len(samples) != 1 || samples[0].Kind != KindCounter || samples[0].Value != 1 {
		t.Fatalf("family corrupted by kind mismatch: %+v", samples)
	}
}

// Help may be called before the first instrument registration (the
// wiring code groups Help calls up front); the family's kind is fixed
// by the first real instrument, not by Help.
func TestHelpBeforeRegistration(t *testing.T) {
	r := NewRegistry()
	r.Help("occupancy", "Current buffered bytes.")
	g := r.Gauge("occupancy")
	g.Set(7)
	r.Help("latency_seconds", "Latency.")
	h := r.Histogram("latency_seconds", []float64{1, 2})
	h.Observe(1.5)

	samples := r.Samples()
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	byName := map[string]Sample{}
	for _, s := range samples {
		byName[s.Name] = s
	}
	if s := byName["occupancy"]; s.Kind != KindGauge || s.Value != 7 {
		t.Errorf("gauge registered after Help is detached: %+v", s)
	}
	if s := byName["latency_seconds"]; s.Kind != KindHistogram || s.Count != 1 {
		t.Errorf("histogram registered after Help is detached: %+v", s)
	}
}

// Label order must not create distinct series.
func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", L("a", "1"), L("b", "2")).Inc()
	r.Counter("c", L("b", "2"), L("a", "1")).Inc()
	if got := len(r.Samples()); got != 1 {
		t.Fatalf("label permutations created %d series, want 1", got)
	}
	if v := r.Samples()[0].Value; v != 2 {
		t.Fatalf("series value = %d, want 2", v)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d", []float64{1, 10})
	for _, v := range []float64{0.5, 5, 50} {
		h.Observe(v)
	}
	s := r.Samples()[0]
	wantCum := []int64{1, 2, 3}
	if len(s.Buckets) != 3 {
		t.Fatalf("got %d buckets, want 3 (two bounds + Inf)", len(s.Buckets))
	}
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d cumulative = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(s.Buckets[2].UpperBound, 1) {
		t.Error("last bucket must be +Inf")
	}
}

// DurationCounts.Observe compares nanoseconds, and counts every
// duration into the bucket a search of the exposed seconds bounds
// finds: on each bound, one nanosecond either side, and beyond both
// ends. The exposed bounds stay 1 µs … 10 s.
func TestDurationCountsObserveMatchesBounds(t *testing.T) {
	if want := []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}; !slices.Equal(DurationBuckets, want) {
		t.Fatalf("DurationBuckets = %v, want %v", DurationBuckets, want)
	}
	ds := []time.Duration{-1, 0, 1, 999 * time.Second}
	for _, b := range durationBounds {
		ds = append(ds, b-1, b, b+1)
	}
	for _, d := range ds {
		var c DurationCounts
		i := c.Observe(d)
		if want := sort.SearchFloat64s(DurationBuckets, d.Seconds()); i != want || c[i] != 1 {
			t.Errorf("Observe(%v) counted into bucket %d (count %d), want %d", d, i, c[i], want)
		}
	}
}

// testCollector emits a fixed set of series.
type testCollector []Sample

func (c testCollector) Collect(emit func(Sample)) {
	for _, s := range c {
		emit(s)
	}
}

// A collector's series are read at every scrape and sorted in among the
// pushed ones by name and then label key. A family the collector emits
// exposes only the collector's series, so a pushed lookup in it cannot
// duplicate one.
func TestCollectedSeriesSortWithPushed(t *testing.T) {
	r := NewRegistry()
	r.Counter("bb_total", L("k", "2")).Add(2)
	r.Counter("b_total", L("k", "1")).Add(5) // made before the collector first emits b_total
	var counts DurationCounts
	counts.Observe(5 * time.Microsecond)
	counts.Observe(2 * time.Second)
	col := testCollector{
		{Name: "b_total", Kind: KindCounter, Labels: []Label{L("k", "3")}, Value: 3},
		{Name: "b_total", Kind: KindCounter, Labels: []Label{L("k", "1")}, Value: 1},
		{Name: "a_total", Kind: KindCounter, Value: 7},
		{Name: "b_total", Kind: KindGauge, Labels: []Label{L("k", "4")}, Value: 4}, // kind mismatch: left out
		counts.Sample("c_seconds", 2*time.Second+5*time.Microsecond, nil),
	}
	r.SetCollector(col)
	if limit := r.SeriesLimit(); limit != DefaultSeriesLimit {
		t.Fatalf("SeriesLimit = %d, want %d", limit, DefaultSeriesLimit)
	}
	var got []string
	for _, s := range r.Samples() {
		got = append(got, fmt.Sprintf("%s%v=%d", s.Name, s.Labels, s.Value+s.Count))
	}
	want := []string{"a_total[]=7", "b_total[{k 1}]=1", "b_total[{k 3}]=3", "bb_total[{k 2}]=2", "c_seconds[]=2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("samples %v, want %v", got, want)
	}
	if r.Counter("b_total", L("k", "4")) == r.Counter("b_total", L("k", "4")) {
		t.Fatal("a pushed lookup in a collected family got a series, not a detached counter")
	}
	h := r.Samples()[4]
	if h.Buckets[1].Count != 1 || h.Buckets[6].Count != 1 || h.Buckets[7].Count != 2 || h.Buckets[8].Count != 2 || math.Abs(h.Sum-2.000005) > 1e-12 {
		t.Fatalf("collected histogram %+v", h)
	}
}
