package meta

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/deadlock"
	"dpn/internal/obs"
	"dpn/internal/token"
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

// elasticRun runs tasks through an elastic pool with the given initial
// worker count, invoking during (if set) once the network is live, and
// returns the consumer's ordered results.
func elasticRun(t *testing.T, tasks int64, workers int, cfg PoolConfig, during func(e *Dynamic)) []int64 {
	t.Helper()
	n := core.NewNetwork()
	e := NewElastic(n, &rangeSource{max: tasks, sleepFn: func(v int64) time.Duration {
		return time.Duration((v*7)%5) * 100 * time.Microsecond
	}}, workers, 0, cfg)
	got := collectResults(e.Consumer)
	e.Spawn(n)
	if during != nil {
		go during(e)
	}
	waitNet(t, n)
	return *got
}

// TestPoolMatchesReference checks the baseline determinacy claim: a
// fixed elastic pool produces the same ordered output as the sequential
// pipeline.
func TestPoolMatchesReference(t *testing.T) {
	got := elasticRun(t, 50, 3, PoolConfig{}, nil)
	eq(t, got, wantSquares(50))
}

// TestPoolJoinMidRun grows the pool from one lane to three while the
// run is in flight: the merged output must be byte-identical to the
// fixed-pool run.
func TestPoolJoinMidRun(t *testing.T) {
	const tasks = 120
	got := elasticRun(t, tasks, 1, PoolConfig{}, func(e *Dynamic) {
		time.Sleep(2 * time.Millisecond)
		e.Pool.AddWorker("late1")
		time.Sleep(2 * time.Millisecond)
		e.Pool.AddWorker("late2")
	})
	eq(t, got, wantSquares(tasks))
}

// TestPoolRetireMidRun shrinks the pool mid-run: the retired lane
// finishes its in-flight task, drains out, and the survivors complete
// the work — output unchanged.
func TestPoolRetireMidRun(t *testing.T) {
	const tasks = 120
	n := core.NewNetwork()
	e := NewElastic(n, &rangeSource{max: tasks, sleepFn: func(int64) time.Duration {
		return 100 * time.Microsecond
	}}, 0, 0, PoolConfig{})
	ids := make([]int, 3)
	for i := range ids {
		ids[i], _ = e.Pool.AddWorker("w" + strconv.Itoa(i))
	}
	got := collectResults(e.Consumer)
	e.Spawn(n)
	go func() {
		time.Sleep(3 * time.Millisecond)
		e.Pool.Retire(ids[1])
	}()
	waitNet(t, n)
	eq(t, *got, wantSquares(tasks))
	if live := e.Pool.LiveLanes(); live > 2 {
		t.Fatalf("retired lane still live: %d lanes", live)
	}
}

// killableLane adds a lane whose worker can be killed from the test by
// closing its task-channel reader: the worker observes end of input,
// its lane dies, and the pool must re-dispatch whatever it still held.
func killableLane(e *Dynamic, tag string) (int, *core.ReadPort) {
	var in *core.ReadPort
	id := e.Pool.AddLane(tag, func(r *core.ReadPort, w *core.WritePort) {
		in = r
		e.Pool.net.Spawn(&Worker{In: r, Out: w, Tag: tag})
	})
	return id, in
}

// decodeTaskBlock decodes a task from the payload of one length-prefixed
// task block (the bytes writeTask framed).
func decodeTaskBlock(b []byte) (Task, error) {
	var t Task
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&t); err != nil {
		return nil, err
	}
	return t, nil
}

// TestPoolKillMidRun kills one of three lanes mid-run (its transport
// drops, as when a compute server dies). The pool re-dispatches the
// lane's in-flight tasks and the output stays byte-identical.
func TestPoolKillMidRun(t *testing.T) {
	const tasks = 150
	n := core.NewNetwork()
	e := NewElastic(n, &rangeSource{max: tasks, sleepFn: func(int64) time.Duration {
		return 100 * time.Microsecond
	}}, 2, 0, PoolConfig{})
	_, victim := killableLane(e, "victim")
	got := collectResults(e.Consumer)
	e.Spawn(n)
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

// stickyProc is a lane body that takes one task hostage: it reads a
// block, then blocks until released; after release it (optionally)
// computes and returns the result late — exercising the duplicate-drop
// path when the task was re-dispatched in the meantime.
type stickyProc struct {
	In      *core.ReadPort
	Out     *core.WritePort
	Release chan struct{}
	Answer  bool // compute the hostage task after release
}

func (p *stickyProc) Run(env *core.Env) error {
	r := token.NewReader(p.In)
	b, err := r.ReadBlockBuf(nil)
	if err != nil {
		return err
	}
	<-p.Release
	if p.Answer {
		t, err := decodeTaskBlock(b)
		if err != nil {
			return err
		}
		res, err := t.Run()
		if err != nil {
			return err
		}
		if err := writeTask(p.Out, res); err != nil {
			return err
		}
	}
	return nil
}

// TestPoolStragglerRedispatch holds one task hostage on a stuck lane;
// the straggler deadline must re-dispatch it to the healthy lane so the
// run completes with the exact reference output.
func TestPoolStragglerRedispatch(t *testing.T) {
	const tasks = 40
	release := make(chan struct{})
	n := core.NewNetwork()
	e := NewElastic(n, &rangeSource{max: tasks}, 1, 0, PoolConfig{
		StragglerDeadline: 5 * time.Millisecond,
	})
	e.Pool.AddLane("stuck", func(r *core.ReadPort, w *core.WritePort) {
		n.Spawn(&stickyProc{In: r, Out: w, Release: release})
	})
	// Collect ordered results; once the healthy lane has covered all the
	// work — including the re-dispatched hostage — release the stuck
	// lane so the network can wind down.
	var got []int64
	released := false
	e.Consumer.SetOnResult(func(ran, _ Task) {
		if r, ok := ran.(*SquareResult); ok {
			got = append(got, r.Sq)
		}
		if len(got) == tasks && !released {
			released = true
			close(release)
		}
	})
	e.Spawn(n)
	waitNet(t, n)
	eq(t, got, wantSquares(tasks))
	reg := n.Obs().Registry()
	if reg.Counter("dpn_pool_redispatch_total", obs.L("reason", "straggler")).Value() == 0 {
		t.Fatal("no straggler re-dispatch recorded")
	}
}

// TestPoolMarkLostRedispatchAndDedup marks the stuck lane lost (the
// deadlock monitor's StatusPeerLost path), forcing immediate
// re-dispatch; the lane then turns out to be alive and answers late.
// The duplicate must be dropped and the output must stay exact.
func TestPoolMarkLostRedispatchAndDedup(t *testing.T) {
	const tasks = 40
	release := make(chan struct{})
	n := core.NewNetwork()
	e := NewElastic(n, &rangeSource{max: tasks}, 1, 0, PoolConfig{})
	stuckID := e.Pool.AddLane("flaky", func(r *core.ReadPort, w *core.WritePort) {
		n.Spawn(&stickyProc{In: r, Out: w, Release: release, Answer: true})
	})
	got := collectResults(e.Consumer)
	e.Spawn(n)
	go func() {
		time.Sleep(3 * time.Millisecond)
		e.Pool.MarkLost(stuckID)
		time.Sleep(2 * time.Millisecond)
		close(release) // the "lost" lane answers after all
	}()
	waitNet(t, n)
	eq(t, *got, wantSquares(tasks))
}

// TestPoolElasticEqualsFixed is the acceptance-criteria determinacy
// check: a run with joins, a leave, and a kill produces output
// byte-identical to a fixed-pool run of the same tasks.
func TestPoolElasticEqualsFixed(t *testing.T) {
	const tasks = 200
	fixed := elasticRun(t, tasks, 3, PoolConfig{}, nil)

	n := core.NewNetwork()
	e := NewElastic(n, &rangeSource{max: tasks, sleepFn: func(v int64) time.Duration {
		return time.Duration(v%3) * 100 * time.Microsecond
	}}, 1, 0, PoolConfig{})
	_, victim := killableLane(e, "doomed")
	got := collectResults(e.Consumer)
	e.Spawn(n)
	go func() {
		time.Sleep(2 * time.Millisecond)
		id, _ := e.Pool.AddWorker("joiner")
		time.Sleep(2 * time.Millisecond)
		victim.Close() // kill
		e.Pool.AddWorker("joiner2")
		time.Sleep(2 * time.Millisecond)
		e.Pool.Retire(id) // leave
	}()
	waitNet(t, n)
	eq(t, *got, fixed)
	eq(t, *got, wantSquares(tasks))
}

// downPeer is a deadlock.Peer that never answers — the node hosting a
// worker lane has dropped off the network.
type downPeer struct{}

func (downPeer) DeadlockStatus() (deadlock.NodeStatus, error) {
	return deadlock.NodeStatus{}, errors.New("peer down")
}

func (downPeer) GrowChannel(string, int) (int, error) { return 0, errors.New("peer down") }

// TestPoolCoordinatorPeerLostRedispatch wires the resilience signal
// into scheduling: a deadlock monitor that watches the node hosting the
// stuck lane reports StatusPeerLost, its OnEvent hook marks that lane
// lost, and the pool re-dispatches its hostage task so the run
// completes with the exact reference output.
func TestPoolCoordinatorPeerLostRedispatch(t *testing.T) {
	const tasks = 40
	release := make(chan struct{})
	n := core.NewNetwork()
	e := NewElastic(n, &rangeSource{max: tasks}, 1, 0, PoolConfig{})
	stuckID := e.Pool.AddLane("remote", func(r *core.ReadPort, w *core.WritePort) {
		n.Spawn(&stickyProc{In: r, Out: w, Release: release})
	})

	// The monitor polls the (gone) peer hosting the "remote" lane; it
	// reports StatusPeerLost and the hook turns the resilience signal
	// into a scheduling action.
	mon := deadlock.New(n, time.Millisecond, downPeer{})
	mon.OnEvent = func(ev deadlock.Event) {
		if ev.Status == deadlock.StatusPeerLost {
			e.Pool.MarkLost(stuckID)
		}
	}

	var got []int64
	released := false
	e.Consumer.SetOnResult(func(ran, _ Task) {
		if r, ok := ran.(*SquareResult); ok {
			got = append(got, r.Sq)
		}
		if len(got) == tasks && !released {
			released = true
			close(release)
		}
	})
	e.Spawn(n)
	mon.Start()
	defer mon.Stop()
	waitNet(t, n)
	eq(t, got, wantSquares(tasks))
	if v := n.Obs().Registry().Counter("dpn_pool_lost_total").Value(); v != 1 {
		t.Fatalf("dpn_pool_lost_total = %d, want 1", v)
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

// TestPoolChaosElasticDeterminacy drives seeded random schedules of
// joins, retirements, kills and MarkLost calls, with straggler
// re-dispatch armed, against the elastic farm at one and two tasks in
// flight per lane, and kills against the fixed farm; every merged output
// must equal the sequential Pipeline's — determinacy under elastic
// chaos.
func TestPoolChaosElasticDeterminacy(t *testing.T) {
	seed := chaosPoolSeed(t)
	const tasks = 300
	source := func() *rangeSource {
		return &rangeSource{max: tasks, sleepFn: func(v int64) time.Duration {
			return time.Duration(v%4) * 50 * time.Microsecond
		}}
	}
	ref := func() []int64 {
		n := core.NewNetwork()
		gate, src := make(chan struct{}), source()
		got := collectResults(Pipeline(n, FuncSource(func() (Task, error) {
			<-gate
			return src.Run()
		}), 0))
		close(gate)
		waitNet(t, n)
		return *got
	}()
	eq(t, ref, wantSquares(tasks))

	for _, inflight := range []int{1, 2} {
		t.Run("elastic-inflight"+strconv.Itoa(inflight), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + int64(inflight)))
			n := core.NewNetwork()
			e := NewElastic(n, source(), 1, 0, PoolConfig{
				MaxInFlight: inflight, StragglerDeadline: 20 * time.Millisecond,
			})
			type lane struct {
				id int
				in *core.ReadPort
			}
			var lanes []lane
			for i := 0; i < 2; i++ {
				id, in := killableLane(e, "k"+strconv.Itoa(i))
				lanes = append(lanes, lane{id, in})
			}
			got := collectResults(e.Consumer)
			e.Spawn(n)
			go func() {
				// w0 is never in lanes, so one lane always survives.
				for op := 0; op < 12; op++ {
					time.Sleep(time.Duration(rng.Intn(3)+1) * time.Millisecond)
					if k := rng.Intn(4); k == 0 {
						if id, in := killableLane(e, "c"+strconv.Itoa(op)); id >= 0 {
							lanes = append(lanes, lane{id, in}) // -1: the run is over
						}
					} else if len(lanes) > 0 {
						i := rng.Intn(len(lanes))
						switch k {
						case 1:
							e.Pool.Retire(lanes[i].id)
						case 2:
							lanes[i].in.Close()
						case 3:
							e.Pool.MarkLost(lanes[i].id)
						}
						lanes = append(lanes[:i], lanes[i+1:]...)
					}
				}
			}()
			waitNet(t, n)
			eq(t, *got, ref)
		})
	}
	t.Run("dynamic", func(t *testing.T) {
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

// TestPoolTerminalStopsRun checks the Terminal path through the pool:
// when the consumer stops the network early, the pool's output write
// fails and the whole composition cascades closed without error.
func TestPoolTerminalStopsRun(t *testing.T) {
	n := core.NewNetwork()
	e := NewElastic(n, &terminalSource{}, 2, 0, PoolConfig{})
	got := collectResults(e.Consumer)
	e.Spawn(n)
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
	e := NewElastic(n, &rangeSource{max: tasks}, 2, 0, PoolConfig{})
	got := collectResults(e.Consumer)
	e.Spawn(n)
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
