package meta

import (
	"testing"

	"dpn/internal/core"
	"dpn/internal/obs"
)

// TestPoolLatencyHistograms checks the three-stage latency plane: every
// emitted task must have passed through queue (intake → first
// dispatch), service (dispatch → result), and total (intake → in-order
// emission) observations.
func TestPoolLatencyHistograms(t *testing.T) {
	const tasks = 40
	n := core.NewNetwork()
	dyn := NewDynamic(n, &rangeSource{max: tasks}, 2, 0)
	got := collectResults(dyn.Consumer)
	dyn.Spawn(n)
	waitNet(t, n)
	eq(t, *got, wantSquares(tasks))

	counts := map[string]int64{}
	for _, s := range n.Obs().Registry().Samples() {
		if s.Name == "dpn_pool_latency_seconds" {
			counts[s.Label("stage")] = s.Count
		}
	}
	for _, stage := range []string{"queue", "service", "total"} {
		if counts[stage] != tasks {
			t.Fatalf("dpn_pool_latency_seconds{stage=%q} count = %d, want %d (all: %v)",
				stage, counts[stage], tasks, counts)
		}
	}
}

// TestPoolTraceSampling samples every task and checks the causal span
// chain a sampled batch leaves behind: intake → dispatch → result →
// emit, all carrying the same nonzero trace ID, in that order.
func TestPoolTraceSampling(t *testing.T) {
	const tasks = 20
	n := core.NewNetwork()
	n.Obs().Tracer().Enable()
	dyn := NewDynamic(n, &rangeSource{max: tasks}, 2, 0)
	dyn.SetTraceSampling(1)
	got := collectResults(dyn.Consumer)
	dyn.Spawn(n)
	waitNet(t, n)
	eq(t, *got, wantSquares(tasks))

	// Group span events by trace ID, keeping arrival order per ID.
	chains := map[int64][]obs.Event{}
	for _, ev := range n.Obs().Tracer().Events() {
		if ev.Type == obs.EvSpan {
			chains[ev.Arg] = append(chains[ev.Arg], ev)
		}
	}
	if len(chains) != tasks {
		t.Fatalf("sampled chains = %d, want %d", len(chains), tasks)
	}
	for id, evs := range chains {
		if id == 0 {
			t.Fatal("span recorded with zero trace ID")
		}
		var seq []string
		for _, ev := range evs {
			seq = append(seq, ev.Detail)
		}
		// Re-dispatch can repeat the dispatch/result hops, but the chain
		// must open with intake and close with emit.
		if seq[0] != "intake" || seq[len(seq)-1] != "emit" {
			t.Fatalf("trace %#x chain = %v, want intake … emit", id, seq)
		}
		has := func(d string) bool {
			for _, s := range seq {
				if s == d {
					return true
				}
			}
			return false
		}
		if !has("dispatch") || !has("result") {
			t.Fatalf("trace %#x chain %v missing dispatch/result", id, seq)
		}
	}
}

// TestPoolTraceSamplingEveryNth samples one task in four: the chain
// count must match the sampler's arithmetic, and unsampled tasks leave
// no spans.
func TestPoolTraceSamplingEveryNth(t *testing.T) {
	const tasks = 40
	n := core.NewNetwork()
	n.Obs().Tracer().Enable()
	dyn := NewDynamic(n, &rangeSource{max: tasks}, 2, 0)
	dyn.SetTraceSampling(4)
	got := collectResults(dyn.Consumer)
	dyn.Spawn(n)
	waitNet(t, n)
	eq(t, *got, wantSquares(tasks))

	ids := map[int64]bool{}
	for _, ev := range n.Obs().Tracer().Events() {
		if ev.Type == obs.EvSpan {
			ids[ev.Arg] = true
		}
	}
	if len(ids) != tasks/4 {
		t.Fatalf("sampled %d distinct traces, want %d", len(ids), tasks/4)
	}
}
