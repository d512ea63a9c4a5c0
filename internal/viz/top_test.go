package viz

import (
	"math/big"
	"strings"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/factor"
	"dpn/internal/meta"
	"dpn/internal/obs"
)

// snap builds one synthetic metrics snapshot for TopView frames.
func snap(tokens, bytes, readWait, writeWait int64) []obs.Sample {
	l := func(k, v string) obs.Label { return obs.L(k, v) }
	return []obs.Sample{
		{Name: "dpn_conduit_tokens_total", Kind: obs.KindCounter,
			Labels: []obs.Label{l("channel", "ab"), l("op", "write")}, Value: tokens},
		{Name: "dpn_conduit_bytes_total", Kind: obs.KindCounter,
			Labels: []obs.Label{l("channel", "ab"), l("op", "write")}, Value: bytes},
		{Name: "dpn_conduit_occupancy_bytes", Kind: obs.KindGauge,
			Labels: []obs.Label{l("channel", "ab")}, Value: 48},
		{Name: "dpn_conduit_capacity_bytes", Kind: obs.KindGauge,
			Labels: []obs.Label{l("channel", "ab")}, Value: 64},
		{Name: "dpn_conduit_wait_ns_total", Kind: obs.KindCounter,
			Labels: []obs.Label{l("channel", "ab"), l("op", "read")}, Value: readWait},
		{Name: "dpn_conduit_wait_ns_total", Kind: obs.KindCounter,
			Labels: []obs.Label{l("channel", "ab"), l("op", "write")}, Value: writeWait},
		{Name: "dpn_net_procs_live", Kind: obs.KindGauge, Value: 3},
		{Name: "dpn_net_procs_blocked", Kind: obs.KindGauge, Value: 1},
		{Name: "dpn_pool_tasks_total", Kind: obs.KindCounter,
			Labels: []obs.Label{l("lane", "w0")}, Value: tokens / 2},
		{Name: "dpn_pool_results_total", Kind: obs.KindCounter,
			Labels: []obs.Label{l("lane", "w0")}, Value: tokens / 2},
		{Name: "dpn_pool_latency_seconds", Kind: obs.KindHistogram,
			Labels: []obs.Label{l("stage", "queue")},
			Sum:    float64(tokens) * 0.001, Count: tokens},
	}
}

// Two synthetic frames one second apart: the view must turn counter
// deltas into rates and blocked-ns deltas into interval percentages.
func TestTopViewRatesAndBlockedPct(t *testing.T) {
	var b strings.Builder
	tv := NewTopView(&b)
	t0 := time.Unix(100, 0)
	tv.Render(snap(0, 0, 0, 0), t0)
	if !strings.Contains(b.String(), "priming") {
		t.Fatalf("first frame did not prime:\n%s", b.String())
	}
	b.Reset()

	// 1s later: 1000 tokens, 8 KiB, 250ms read-blocked, 500ms write-blocked.
	tv.Render(snap(1000, 8192, 250_000_000, 500_000_000), t0.Add(time.Second))
	out := b.String()
	row := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "ab") {
			row = line
		}
	}
	if row == "" {
		t.Fatalf("channel row missing:\n%s", out)
	}
	for _, want := range []string{"1000", "8.0", "48/64", "25%", "50%"} {
		if !strings.Contains(row, want) {
			t.Fatalf("channel row %q missing %q", row, want)
		}
	}
	if !strings.Contains(out, "w0") {
		t.Fatalf("lane row missing:\n%s", out)
	}
	if !strings.Contains(out, "queue=1.0ms") {
		t.Fatalf("latency line missing or wrong:\n%s", out)
	}
}

// The acceptance check: a real task-farm run rendered live. The
// frame after the run must show the per-channel table, the pool's lane
// activity, and the latency summary, all sourced from the run's own
// registry.
func TestTopViewElasticPoolRun(t *testing.T) {
	n := core.NewNetwork()
	src := &factor.SearchSpace{N: big.NewInt(101 * 103), Batch: 4, MaxTasks: 30}
	dyn := meta.NewDynamic(n, src, 2, 0)
	var b strings.Builder
	tv := NewTopView(&b)
	t0 := time.Now()
	tv.Render(n.Obs().Registry().Samples(), t0)
	dyn.Spawn(n)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	tv.Render(n.Obs().Registry().Samples(), t0.Add(50*time.Millisecond))
	out := b.String()
	if !strings.Contains(out, "CHANNEL") || !strings.Contains(out, "LANE") {
		t.Fatalf("live frame missing channel/lane tables:\n%s", out)
	}
	if !strings.Contains(out, "pool latency") {
		t.Fatalf("live frame missing latency summary:\n%s", out)
	}
}
