package workload

import (
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// workloadSeed returns the suite seed. WORKLOAD_SEED overrides the
// default so a logged failing run can be replayed exactly (the
// -scenarios gate does this automatically, like the chaos gate).
func workloadSeed(t *testing.T, def int64) int64 {
	t.Helper()
	seed := def
	if s := os.Getenv("WORKLOAD_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("WORKLOAD_SEED: %v", err)
		}
		seed = v
	}
	t.Logf("workload seed %d", seed)
	return seed
}

// settled polls until the goroutine count returns to the baseline
// (plus slack for runtime helpers), failing the test otherwise.
func settled(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// deployOptions picks per-deployment pacing: distributed deployments
// throttle the sources so faults and migrations overlap a live
// stream; loopback and tcp run full speed.
func deployOptions(d Deployment, seed int64) RunOptions {
	switch d {
	case Chaos:
		return RunOptions{Pace: 200 * time.Microsecond, ChaosSeed: seed}
	case Migration:
		return RunOptions{Pace: 2 * time.Millisecond}
	default:
		return RunOptions{}
	}
}

// TestScenarioOracleEquivalence is the tentpole property: every
// catalog scenario's merged output is byte-identical to its
// single-threaded oracle under loopback, tcp, chaos-injected, and
// mid-migration deployments.
func TestScenarioOracleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed scenario matrix in -short mode")
	}
	base := workloadSeed(t, 2003)
	for _, sc := range Catalog(base) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			for _, d := range Deployments {
				if err := Check(sc, base, d, deployOptions(d, base)); err != nil {
					t.Fatalf("replay with WORKLOAD_SEED=%d: %v", base, err)
				}
			}
		})
	}
}

// TestScenarioOraclesAreDeterministic: the oracle itself must be a
// pure function of the seed — the suite's ground truth.
func TestScenarioOraclesAreDeterministic(t *testing.T) {
	seed := workloadSeed(t, 77)
	for _, sc := range Catalog(seed) {
		a, b := sc.Oracle(seed), sc.Oracle(seed)
		if err := equal(a, b); err != nil {
			t.Fatalf("%s oracle is not deterministic: %v", sc.Name, err)
		}
		if len(a) == 0 {
			t.Fatalf("%s oracle is empty", sc.Name)
		}
	}
}

// TestStreamOracleShape pins structural invariants of the streaming
// oracle: triples, window-close tags strictly increasing, flush
// entries last and key-sorted.
func TestStreamOracleShape(t *testing.T) {
	spec := streamSpec{records: 500, keys: 7, window: 3, shards: 2, batch: 16}
	out := streamOracle(spec, workloadSeed(t, 5))
	if len(out)%3 != 0 {
		t.Fatalf("oracle length %d is not a multiple of 3", len(out))
	}
	lastTag, lastFlushKey := int64(-1), int64(-1)
	inFlush := false
	for i := 0; i < len(out); i += 3 {
		tag, key := out[i], out[i+1]
		if tag == flushTag {
			inFlush = true
			if key <= lastFlushKey {
				t.Fatalf("flush keys not ascending at %d", i)
			}
			lastFlushKey = key
			continue
		}
		if inFlush {
			t.Fatalf("window close after flush at %d", i)
		}
		if tag <= lastTag {
			t.Fatalf("window-close tags not ascending at %d", i)
		}
		lastTag = tag
	}
}

// TestScenarioLoopbackStats: Run must report tokens and elapsed time
// when asked.
func TestScenarioLoopbackStats(t *testing.T) {
	seed := workloadSeed(t, 11)
	sc := Catalog(seed)[0]
	var st RunStats
	got, err := Run(sc, seed, Loopback, RunOptions{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || st.Tokens <= 0 || st.Elapsed <= 0 {
		t.Fatalf("stats not populated: %d elements, %d tokens, %v", len(got), st.Tokens, st.Elapsed)
	}
	if st.Tokens < int64(len(got)) {
		t.Fatalf("token count %d below collected elements %d", st.Tokens, len(got))
	}
}
