package workload

import (
	"os"
	"runtime"
	"strconv"
	"testing"
)

// TestSoakSmoke runs the many-client soak at gate scale: a few dozen
// concurrent graphs against two shared servers, every graph verified
// against its oracle, percentiles readable from the exposition path.
// SOAK_GRAPHS scales it up for manual soaks (SOAK_GRAPHS=120 is the
// full configuration).
func TestSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("soak in -short mode")
	}
	graphs := 24
	if s := os.Getenv("SOAK_GRAPHS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("SOAK_GRAPHS: %v", err)
		}
		graphs = v
	}
	baseline := runtime.NumGoroutine()
	rep, err := RunSoak(SoakConfig{
		Graphs:  graphs,
		Servers: 2,
		Records: 600,
		Tasks:   24,
		Seed:    workloadSeed(t, 4242),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: %d graphs, %.0f tokens/sec, stream p95 %.4fs, task p95 %.4fs, wait share %.3f",
		rep.Graphs, rep.TokensPerSec, rep.Stream.P95, rep.TaskP95, rep.WaitShare)
	if rep.Failures != 0 {
		t.Fatalf("soak failures: %d: %v", rep.Failures, rep.Errors)
	}
	if rep.Graphs != graphs {
		t.Fatalf("report graphs = %d, want %d", rep.Graphs, graphs)
	}
	if rep.Tokens <= 0 || rep.TokensPerSec <= 0 {
		t.Fatalf("no throughput recorded: %+v", rep)
	}
	// Percentiles must come back finite and ordered through the
	// exposition path for both families and the pool's task latency.
	for _, q := range []struct {
		name          string
		p50, p95, p99 float64
	}{
		{"stream", rep.Stream.P50, rep.Stream.P95, rep.Stream.P99},
		{"pool", rep.Pool.P50, rep.Pool.P95, rep.Pool.P99},
		{"task", rep.TaskP50, rep.TaskP95, rep.TaskP99},
	} {
		if !(q.p50 > 0) || !(q.p95 >= q.p50) || !(q.p99 >= q.p95) {
			t.Fatalf("%s percentiles malformed: p50=%v p95=%v p99=%v", q.name, q.p50, q.p95, q.p99)
		}
	}
	if rep.ConduitWaitSeconds < 0 || rep.WaitShare < 0 {
		t.Fatalf("negative wait accounting: %+v", rep)
	}
	settled(t, baseline)
}
