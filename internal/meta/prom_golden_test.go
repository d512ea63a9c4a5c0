package meta

import (
	"strings"
	"testing"

	"dpn/internal/core"
)

// TestPromGoldenLatencyFamilies pins the Prometheus exposition of the
// telemetry families this layer registers: after a real farm run
// the scraped document must carry dpn_pool_latency_seconds as a proper
// histogram family (HELP + TYPE once, _bucket/_sum/_count expansion,
// deterministic counts) and dpn_conduit_wait_ns_total as a labelled
// counter family. Timings vary run to run, so the golden lines are the
// ones determinism guarantees: headers, family structure, and counts.
func TestPromGoldenLatencyFamilies(t *testing.T) {
	const tasks = 40
	n := core.NewNetwork()
	dyn := NewDynamic(n, &rangeSource{max: tasks}, 2, 0)
	got := collectResults(dyn.Consumer)
	dyn.Spawn(n)
	waitNet(t, n)
	eq(t, *got, wantSquares(tasks))

	var b strings.Builder
	if err := n.Obs().Registry().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	doc := b.String()

	golden := []string{
		"# HELP dpn_pool_latency_seconds Task latency distribution, by stage (queue = intake to first dispatch, service = latest dispatch to result, total = intake to in-order emission).",
		"# TYPE dpn_pool_latency_seconds histogram",
		`dpn_pool_latency_seconds_bucket{stage="queue",le="+Inf"} 40`,
		`dpn_pool_latency_seconds_bucket{stage="service",le="+Inf"} 40`,
		`dpn_pool_latency_seconds_bucket{stage="total",le="+Inf"} 40`,
		`dpn_pool_latency_seconds_count{stage="queue"} 40`,
		`dpn_pool_latency_seconds_count{stage="service"} 40`,
		`dpn_pool_latency_seconds_count{stage="total"} 40`,
		"# HELP dpn_conduit_wait_ns_total Total nanoseconds blocked on the conduit, by op (read = consumer starved, write = producer throttled by a full buffer).",
		"# TYPE dpn_conduit_wait_ns_total counter",
		`dpn_conduit_wait_ns_total{channel="ordered",op="read"} `,
		`dpn_conduit_wait_ns_total{channel="ordered",op="write"} `,
	}
	for _, want := range golden {
		if !strings.Contains(doc, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, family := range []string{"dpn_pool_latency_seconds", "dpn_conduit_wait_ns_total"} {
		if c := strings.Count(doc, "# TYPE "+family+" "); c != 1 {
			t.Errorf("# TYPE %s appears %d times, want 1", family, c)
		}
	}
	// Each stage's histogram must expose exactly one _sum series.
	if c := strings.Count(doc, "dpn_pool_latency_seconds_sum{"); c != 3 {
		t.Errorf("dpn_pool_latency_seconds_sum series = %d, want 3", c)
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", doc)
	}
}
