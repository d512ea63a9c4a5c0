package obs

import (
	"strings"
	"testing"
)

// Round-trip: whatever WriteProm emits, ParseProm must read back with
// the same names, labels, kinds, and values — the dpntop scrape loop
// diffs successive parses, so a lossy parse would corrupt every rate.
func TestParsePromRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Help("dpn_conduit_wait_ns_total", "Blocked time.")
	r.Counter("dpn_conduit_wait_ns_total", L("channel", "a:b"), L("op", "read")).Add(1500)
	r.Counter("dpn_conduit_wait_ns_total", L("channel", "a:b"), L("op", "write")).Add(2500)
	r.Gauge("dpn_pool_lanes").Set(3)
	h := r.Histogram("dpn_pool_latency_seconds", []float64{0.1, 1}, L("stage", "queue"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WriteProm(&b, L("node", "n1")); err != nil {
		t.Fatal(err)
	}
	got := ParseProm(b.String())

	find := func(name string, labels ...Label) *Sample {
		for i := range got {
			s := &got[i]
			if s.Name != name {
				continue
			}
			match := true
			for _, l := range labels {
				if s.Label(l.Key) != l.Value {
					match = false
					break
				}
			}
			if match {
				return s
			}
		}
		t.Fatalf("sample %s%v not parsed; got %+v", name, labels, got)
		return nil
	}
	if s := find("dpn_conduit_wait_ns_total", L("op", "read")); s.Value != 1500 || s.Kind != KindCounter {
		t.Fatalf("read wait = %+v", s)
	}
	if s := find("dpn_conduit_wait_ns_total", L("op", "write")); s.Value != 2500 {
		t.Fatalf("write wait = %+v", s)
	}
	if s := find("dpn_pool_lanes"); s.Value != 3 || s.Kind != KindGauge {
		t.Fatalf("lanes = %+v", s)
	}
	hs := find("dpn_pool_latency_seconds", L("stage", "queue"))
	if hs.Kind != KindHistogram || hs.Count != 3 || hs.Sum != 2.55 {
		t.Fatalf("histogram = %+v", hs)
	}
	if hs.Label("le") != "" {
		t.Fatal("le label must be dropped from folded histogram samples")
	}
	if hs.Label("node") != "n1" {
		t.Fatal("base labels must survive the round trip")
	}
}

func TestParsePromSkipsGarbageAndComments(t *testing.T) {
	got := ParseProm("# dpn:stale peer[1]: dial tcp: refused\nnot a metric line at all\nx 7\n")
	if len(got) != 1 || got[0].Name != "x" || got[0].Value != 7 {
		t.Fatalf("got %+v", got)
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
