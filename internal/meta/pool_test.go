package meta

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/obs"
)

// waitNet waits for the network with a hang guard.
func waitNet(t *testing.T, n *core.Network) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- n.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("network did not terminate")
	}
}

// TestPoolMatchesReference checks the baseline determinacy claim: the
// farm produces the same ordered output as the sequential pipeline.
func TestPoolMatchesReference(t *testing.T) {
	n := core.NewNetwork()
	dyn := NewDynamic(n, &rangeSource{max: 50, sleepFn: func(v int64) time.Duration {
		return time.Duration((v*7)%5) * 100 * time.Microsecond
	}}, 3, 0)
	got := collectResults(dyn.Consumer)
	dyn.Spawn(n)
	waitNet(t, n)
	eq(t, *got, wantSquares(50))
}

// TestPoolKillMidRun kills one of three lanes mid-run (its transport
// drops, as when a compute server dies). The farm sends the lane's
// in-flight task again and the output stays byte-identical.
func TestPoolKillMidRun(t *testing.T) {
	const tasks = 150
	n := core.NewNetwork()
	dyn := NewDynamic(n, &rangeSource{max: tasks, sleepFn: func(int64) time.Duration {
		return 100 * time.Microsecond
	}}, 3, 0)
	victim := dyn.Workers[2].In
	got := collectResults(dyn.Consumer)
	dyn.Spawn(n)
	go func() {
		time.Sleep(3 * time.Millisecond)
		victim.Close()
	}()
	waitNet(t, n)
	eq(t, *got, wantSquares(tasks))
	reg := n.Obs().Registry()
	if reg.Counter("dpn_pool_emitted_total").Value() != tasks {
		t.Fatalf("emitted = %d, want %d", reg.Counter("dpn_pool_emitted_total").Value(), tasks)
	}
}

// chaosPoolSeed follows the repo's chaos idiom: random by default,
// pinned via CHAOS_SEED for replay.
func chaosPoolSeed(t *testing.T) int64 {
	t.Helper()
	seed := time.Now().UnixNano()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("chaos seed %d", seed)
	return seed
}

// TestPoolChaosElasticDeterminacy kills three of four lanes at seeded
// random moments while the farm runs; its merged output must equal the
// sequential pipeline's — determinacy when lanes die. Its one case,
// dynamic, is the fixed farm NewDynamic builds (the name is older than
// the farm's fixed lane set).
func TestPoolChaosElasticDeterminacy(t *testing.T) {
	seed := chaosPoolSeed(t)
	t.Run("dynamic", func(t *testing.T) {
		const tasks = 300
		source := func() *rangeSource {
			return &rangeSource{max: tasks, sleepFn: func(v int64) time.Duration {
				return time.Duration(v%4) * 50 * time.Microsecond
			}}
		}
		ref := func() []int64 {
			n := core.NewNetwork()
			gate, src := make(chan struct{}), source()
			got := collectResults(pipeline(n, funcSource(func() (Task, error) {
				<-gate
				return src.Run()
			}), 0))
			close(gate)
			waitNet(t, n)
			return *got
		}()
		eq(t, ref, wantSquares(tasks))

		rng := rand.New(rand.NewSource(seed))
		n := core.NewNetwork()
		dyn := NewDynamic(n, source(), 4, 0)
		got := collectResults(dyn.Consumer)
		dyn.Spawn(n)
		go func() {
			for _, w := range rng.Perm(len(dyn.Workers))[:3] {
				time.Sleep(time.Duration(rng.Intn(4)+1) * time.Millisecond)
				dyn.Workers[w].In.Close()
			}
		}()
		waitNet(t, n)
		eq(t, *got, ref)
	})
}

// TestPoolTerminalStopsRun checks the Terminal path through the farm:
// when the consumer stops the network early, the farm's output write
// fails and the whole composition cascades closed without error.
func TestPoolTerminalStopsRun(t *testing.T) {
	n := core.NewNetwork()
	dyn := NewDynamic(n, &terminalSource{}, 2, 0)
	got := collectResults(dyn.Consumer)
	dyn.Spawn(n)
	waitNet(t, n)
	if len(*got) < 6 {
		t.Fatalf("got %v, want at least results 0..5", *got)
	}
	eq(t, (*got)[:6], wantSquares(6))
}

// TestPoolMetricsAccounting checks the dpn_pool_* accounting plane: the
// per-lane dispatch counters must sum to at least the task count, the
// emitted counter must equal it exactly, and join/leave balance out.
func TestPoolMetricsAccounting(t *testing.T) {
	const tasks = 60
	n := core.NewNetwork()
	dyn := NewDynamic(n, &rangeSource{max: tasks}, 2, 0)
	got := collectResults(dyn.Consumer)
	dyn.Spawn(n)
	waitNet(t, n)
	eq(t, *got, wantSquares(tasks))
	reg := n.Obs().Registry()
	if v := reg.Counter("dpn_pool_emitted_total").Value(); v != tasks {
		t.Fatalf("dpn_pool_emitted_total = %d, want %d", v, tasks)
	}
	if v := reg.Counter("dpn_pool_joins_total").Value(); v != 2 {
		t.Fatalf("dpn_pool_joins_total = %d, want 2", v)
	}
	if v := reg.Gauge("dpn_pool_inflight").Value(); v != 0 {
		t.Fatalf("dpn_pool_inflight = %d at end of run", v)
	}
	var dispatched int64
	for _, tag := range []string{"w0", "w1"} {
		dispatched += reg.Counter("dpn_pool_tasks_total", obs.L("lane", tag)).Value()
	}
	if dispatched < tasks {
		t.Fatalf("per-lane dispatches sum to %d, want >= %d", dispatched, tasks)
	}
}
