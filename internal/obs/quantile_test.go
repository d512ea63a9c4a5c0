package obs

import (
	"math"
	"testing"
)

// findSample returns the first sample with the given name whose labels
// include every given key=value pair.
func findSample(t *testing.T, samples []Sample, name string, kv ...string) Sample {
	t.Helper()
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(kv); i += 2 {
			if s.Label(kv[i]) != kv[i+1] {
				ok = false
				break
			}
		}
		if ok {
			return s
		}
	}
	t.Fatalf("no sample %s %v", name, kv)
	return Sample{}
}

func near(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s = %v, want %v ± %v", what, got, want, tol)
	}
}

// TestQuantileUniform checks the estimator against a uniform
// distribution: 400 observations evenly spaced over (0, 4] with bounds
// at every integer. Linear interpolation recovers the exact quantiles.
func TestQuantileUniform(t *testing.T) {
	reg := NewScope().Registry()
	h := reg.Histogram("q_uniform", []float64{1, 2, 3, 4, 5})
	for i := 1; i <= 400; i++ {
		h.Observe(float64(i) / 100) // 0.01 .. 4.00
	}
	s := findSample(t, reg.Samples(), "q_uniform")
	near(t, s.Quantile(0.5), 2.0, 0.02, "p50")
	near(t, s.Quantile(0.25), 1.0, 0.02, "p25")
	near(t, s.Quantile(0.95), 3.8, 0.02, "p95")
	near(t, s.Quantile(1), 4.0, 1e-9, "p100")
	near(t, s.Quantile(0), 0.0, 1e-9, "p0")
}

// TestQuantileBimodal checks a known two-cluster distribution: ranks
// falling in an empty middle bucket must resolve to the bucket edges,
// and the clusters' interior quantiles interpolate within their bucket.
func TestQuantileBimodal(t *testing.T) {
	reg := NewScope().Registry()
	h := reg.Histogram("q_bimodal", []float64{1, 2, 3, 4})
	for i := 0; i < 100; i++ {
		h.Observe(0.5) // bucket (0,1]
	}
	for i := 0; i < 100; i++ {
		h.Observe(3.5) // bucket (3,4]
	}
	s := findSample(t, reg.Samples(), "q_bimodal")
	// Rank 100 sits exactly at the top of the first bucket.
	near(t, s.Quantile(0.5), 1.0, 1e-9, "p50")
	// Rank 50 is the middle of the first bucket's 100 observations.
	near(t, s.Quantile(0.25), 0.5, 1e-9, "p25")
	// Rank 150 is the middle of the (3,4] bucket.
	near(t, s.Quantile(0.75), 3.5, 1e-9, "p75")
}

// TestQuantileOverflow: observations beyond the highest finite bound
// land in +Inf, where the histogram cannot resolve a value; the
// estimator must return the highest finite bound, not infinity.
func TestQuantileOverflow(t *testing.T) {
	reg := NewScope().Registry()
	h := reg.Histogram("q_over", []float64{1, 2})
	for i := 0; i < 10; i++ {
		h.Observe(100)
	}
	s := findSample(t, reg.Samples(), "q_over")
	near(t, s.Quantile(0.99), 2.0, 1e-9, "p99")
}

// TestQuantileDegenerate: non-histograms and empty histograms have no
// quantiles.
func TestQuantileDegenerate(t *testing.T) {
	if q := (Sample{Kind: KindCounter, Value: 7}).Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("counter quantile = %v, want NaN", q)
	}
	reg := NewScope().Registry()
	reg.Histogram("q_empty", []float64{1})
	s := findSample(t, reg.Samples(), "q_empty")
	if q := s.Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("empty histogram quantile = %v, want NaN", q)
	}
}
