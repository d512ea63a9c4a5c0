package obs

import (
	"strings"
	"testing"
)

// Golden test of the exposition: families sorted, HELP/TYPE once per
// family, histogram expanded into _bucket/_sum/_count, base labels
// injected first.
func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	r.Help("bytes_total", "Bytes moved.")
	r.Counter("bytes_total", L("channel", "ab"), L("op", "write")).Add(128)
	r.Counter("bytes_total", L("channel", "ab"), L("op", "read")).Add(64)
	r.Gauge("occupancy").Set(7)
	h := r.Histogram("wait_seconds", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(2)

	var b strings.Builder
	if err := r.WriteProm(&b, L("node", "n1")); err != nil {
		t.Fatal(err)
	}
	want := `# HELP bytes_total Bytes moved.
# TYPE bytes_total counter
bytes_total{node="n1",channel="ab",op="read"} 64
bytes_total{node="n1",channel="ab",op="write"} 128
# TYPE occupancy gauge
occupancy{node="n1"} 7
# TYPE wait_seconds histogram
wait_seconds_bucket{node="n1",le="0.5"} 1
wait_seconds_bucket{node="n1",le="1"} 1
wait_seconds_bucket{node="n1",le="+Inf"} 2
wait_seconds_sum{node="n1"} 2.25
wait_seconds_count{node="n1"} 2
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestPromEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", L("name", `a"b\c`+"\n")).Inc()
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if want := `c{name="a\"b\\c\n"} 1` + "\n"; !strings.Contains(b.String(), want) {
		t.Errorf("label not escaped: %q", b.String())
	}
}

// Golden check for the new histogram families' exposition: the exact
// lines dashboards grep for.
func TestNewFamiliesGoldenExposition(t *testing.T) {
	r := NewRegistry()
	r.Help("dpn_pool_latency_seconds", "Task latency distribution, by stage.")
	h := r.Histogram("dpn_pool_latency_seconds", []float64{0.5}, L("stage", "total"))
	h.Observe(0.25)
	r.Help("dpn_conduit_wait_ns_total", "Total nanoseconds blocked on the conduit.")
	r.Counter("dpn_conduit_wait_ns_total", L("channel", "c"), L("op", "write")).Add(42)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"# TYPE dpn_conduit_wait_ns_total counter\n",
		`dpn_conduit_wait_ns_total{channel="c",op="write"} 42` + "\n",
		"# TYPE dpn_pool_latency_seconds histogram\n",
		`dpn_pool_latency_seconds_bucket{stage="total",le="0.5"} 1` + "\n",
		`dpn_pool_latency_seconds_bucket{stage="total",le="+Inf"} 1` + "\n",
		`dpn_pool_latency_seconds_sum{stage="total"} 0.25` + "\n",
		`dpn_pool_latency_seconds_count{stage="total"} 1` + "\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
}
