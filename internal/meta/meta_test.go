package meta

import (
	"encoding/gob"
	"io"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"dpn/internal/core"
	"dpn/internal/token"
)

// SquareTask is a worker task computing V². Sleep simulates work of
// varying duration.
type SquareTask struct {
	V     int64
	Sleep time.Duration
}

// Run implements Task.
func (t *SquareTask) Run() (Task, error) {
	if t.Sleep > 0 {
		time.Sleep(t.Sleep)
	}
	return &SquareResult{V: t.V, Sq: t.V * t.V}, nil
}

// SquareResult is the consumer task carrying a computed square.
type SquareResult struct {
	V, Sq int64
	Last  bool
}

// Run implements Task.
func (t *SquareResult) Run() (Task, error) { return nil, nil }

// Terminal implements the stop signal.
func (t *SquareResult) Terminal() bool { return t.Last }

func init() {
	gob.Register(&SquareTask{})
	gob.Register(&SquareResult{})
}

// rangeSource produces SquareTasks for 0..max-1, optionally with
// per-task sleep chosen by sleepFn.
type rangeSource struct {
	next, max int64
	sleepFn   func(int64) time.Duration
}

func (s *rangeSource) Run() (Task, error) {
	if s.next >= s.max {
		return nil, nil
	}
	v := s.next
	s.next++
	t := &SquareTask{V: v}
	if s.sleepFn != nil {
		t.Sleep = s.sleepFn(v)
	}
	return t, nil
}

// pipeline wires the simple Producer→Worker→Consumer pipeline of
// Figure 1, the sequential reference the compositions are checked
// against, and returns the consumer.
func pipeline(n *core.Network, source Task, capacity int) *Consumer {
	pw := n.NewChannel("tasks", capacity)
	wc := n.NewChannel("results", capacity)
	n.Spawn(&Producer{Source: source, Out: pw.Writer()})
	n.Spawn(&Worker{In: pw.Reader(), Out: wc.Writer()})
	consumer := &Consumer{In: wc.Reader()}
	n.Spawn(consumer)
	return consumer
}

// funcSource adapts a closure to the Task interface for a local
// producer.
type funcSource func() (Task, error)

func (f funcSource) Run() (Task, error) { return f() }

// collectResults attaches an ordered collector to a consumer.
func collectResults(c *Consumer) *[]int64 {
	out := &[]int64{}
	c.SetOnResult(func(ran, result Task) {
		if r, ok := ran.(*SquareResult); ok {
			*out = append(*out, r.Sq)
		}
	})
	return out
}

func wantSquares(n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i) * int64(i)
	}
	return out
}

func eq(t *testing.T, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPipelineOrdered(t *testing.T) {
	n := core.NewNetwork()
	c := pipeline(n, &rangeSource{max: 20}, 0)
	got := collectResults(c)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	eq(t, *got, wantSquares(20))
	if c.Consumed() != 20 {
		t.Fatalf("Consumed = %d", c.Consumed())
	}
}

func TestStaticOrdered(t *testing.T) {
	n := core.NewNetwork()
	st := NewStatic(n, &rangeSource{max: 24}, 4, 0)
	got := collectResults(st.Consumer)
	st.Spawn(n)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	eq(t, *got, wantSquares(24))
}

func TestDynamicOrderedWithVariedDurations(t *testing.T) {
	// Tasks complete out of order across workers; the indexed merge must
	// still present results in task order (the §5 determinacy claim).
	sleep := func(v int64) time.Duration {
		return time.Duration((v*7)%5) * time.Millisecond
	}
	n := core.NewNetwork()
	dyn := NewDynamic(n, &rangeSource{max: 40, sleepFn: sleep}, 5, 0)
	got := collectResults(dyn.Consumer)
	dyn.Spawn(n)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	eq(t, *got, wantSquares(40))
}

func TestAllThreeCompositionsAgree(t *testing.T) {
	// "the order in which results are sent to the consumer by the
	// dynamically balanced parallel composition ... is identical to that
	// for the statically balanced composition and the pipelined
	// computation" (§5).
	results := make([][]int64, 3)

	n1 := core.NewNetwork()
	c1 := pipeline(n1, &rangeSource{max: 30}, 0)
	r1 := collectResults(c1)

	n2 := core.NewNetwork()
	st := NewStatic(n2, &rangeSource{max: 30}, 3, 0)
	r2 := collectResults(st.Consumer)
	st.Spawn(n2)

	n3 := core.NewNetwork()
	dyn := NewDynamic(n3, &rangeSource{max: 30, sleepFn: func(v int64) time.Duration {
		return time.Duration(v%3) * time.Millisecond
	}}, 3, 0)
	r3 := collectResults(dyn.Consumer)
	dyn.Spawn(n3)

	for _, n := range []*core.Network{n1, n2, n3} {
		if err := n.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	results[0], results[1], results[2] = *r1, *r2, *r3
	eq(t, results[0], wantSquares(30))
	eq(t, results[1], results[0])
	eq(t, results[2], results[0])
}

func TestDynamicFewerTasksThanWorkers(t *testing.T) {
	n := core.NewNetwork()
	dyn := NewDynamic(n, &rangeSource{max: 2}, 6, 0)
	got := collectResults(dyn.Consumer)
	dyn.Spawn(n)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	eq(t, *got, wantSquares(2))
}

func TestStaticFewerTasksThanWorkers(t *testing.T) {
	n := core.NewNetwork()
	st := NewStatic(n, &rangeSource{max: 3}, 5, 0)
	got := collectResults(st.Consumer)
	st.Spawn(n)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	eq(t, *got, wantSquares(3))
}

// terminalSource emits tasks whose results eventually raise the
// Terminal flag; the consumer must stop the network early.
type terminalSource struct{ next int64 }

func (s *terminalSource) Run() (Task, error) {
	v := s.next
	s.next++
	return &FlagTask{V: v, FlagAt: 5}, nil
}

// FlagTask's result is terminal when V == FlagAt.
type FlagTask struct{ V, FlagAt int64 }

// Run implements Task.
func (t *FlagTask) Run() (Task, error) {
	return &SquareResult{V: t.V, Sq: t.V * t.V, Last: t.V == t.FlagAt}, nil
}

func init() { gob.Register(&FlagTask{}) }

func TestTerminalResultStopsNetwork(t *testing.T) {
	// Unbounded producer; only the terminal result ends the run.
	n := core.NewNetwork()
	c := pipeline(n, &terminalSource{}, 0)
	got := collectResults(c)
	done := make(chan error, 1)
	go func() { done <- n.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("terminal result did not stop the network")
	}
	eq(t, *got, wantSquares(6)) // results 0..5 inclusive
}

func TestTerminalStopsDynamicComposition(t *testing.T) {
	n := core.NewNetwork()
	dyn := NewDynamic(n, &terminalSource{}, 4, 0)
	got := collectResults(dyn.Consumer)
	dyn.Spawn(n)
	done := make(chan error, 1)
	go func() { done <- n.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("terminal result did not stop the dynamic network")
	}
	if len(*got) < 6 {
		t.Fatalf("got %v, want at least results 0..5", *got)
	}
	eq(t, (*got)[:6], wantSquares(6))
}

// countingWorker wraps the generic worker ports, counting tasks and
// adding a fixed lag to simulate a slow CPU.
type countingWorker struct {
	In    *core.ReadPort
	Out   *core.WritePort
	Lag   time.Duration
	Count *atomic.Int64
}

func (w *countingWorker) Step(env *core.Env) error {
	t, err := readTask(w.In)
	if err != nil {
		return err
	}
	if w.Lag > 0 {
		time.Sleep(w.Lag)
	}
	r, err := t.Run()
	if err != nil {
		return err
	}
	w.Count.Add(1)
	return writeTask(w.Out, r)
}

// TestDynamicLoadBalancesOnDemand reproduces the §5 behaviour: with one
// slow worker, the dynamic composition routes more tasks to the fast
// workers, while the static composition forces equal shares.
func TestDynamicLoadBalancesOnDemand(t *testing.T) {
	const tasks = 40
	counts := make([]atomic.Int64, 3)

	n := core.NewNetwork()
	dyn := NewDynamic(n, &rangeSource{max: tasks}, 3, 0)
	got := collectResults(dyn.Consumer)
	// Replace the generic workers: worker 0 is 20× slower.
	n.Spawn(dyn.Producer)
	n.Spawn(dyn.Direct)
	for i, w := range dyn.Workers {
		lag := time.Millisecond
		if i == 0 {
			lag = 20 * time.Millisecond
		}
		n.Spawn(&countingWorker{In: w.In, Out: w.Out, Lag: lag, Count: &counts[i]})
	}
	n.Spawn(dyn.Turnstile)
	n.Spawn(dyn.IndexCons)
	n.Spawn(dyn.Select)
	n.Spawn(dyn.Consumer)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	eq(t, *got, wantSquares(tasks))
	slow, fast1, fast2 := counts[0].Load(), counts[1].Load(), counts[2].Load()
	t.Logf("task counts: slow=%d fast=%d,%d", slow, fast1, fast2)
	if slow >= fast1 || slow >= fast2 {
		t.Fatalf("dynamic balancing failed: slow worker processed %d tasks, fast %d/%d",
			slow, fast1, fast2)
	}
}

func TestStaticForcesEqualShares(t *testing.T) {
	const tasks = 30
	counts := make([]atomic.Int64, 3)
	n := core.NewNetwork()
	st := NewStatic(n, &rangeSource{max: tasks}, 3, 0)
	got := collectResults(st.Consumer)
	n.Spawn(st.Producer)
	n.Spawn(st.Scatter)
	for i, w := range st.Workers {
		lag := time.Duration(0)
		if i == 0 {
			lag = 5 * time.Millisecond
		}
		n.Spawn(&countingWorker{In: w.In, Out: w.Out, Lag: lag, Count: &counts[i]})
	}
	n.Spawn(st.Gather)
	n.Spawn(st.Consumer)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	eq(t, *got, wantSquares(tasks))
	for i := range counts {
		if got := counts[i].Load(); got != tasks/3 {
			t.Fatalf("worker %d processed %d tasks, want %d", i, got, tasks/3)
		}
	}
}

// Property: for any worker count and task count, dynamic output equals
// the sequential reference order.
func TestDynamicOrderProperty(t *testing.T) {
	f := func(workerSeed, taskSeed uint8) bool {
		workers := int(workerSeed)%6 + 1
		tasks := int64(taskSeed) % 50
		n := core.NewNetwork()
		dyn := NewDynamic(n, &rangeSource{max: tasks, sleepFn: func(v int64) time.Duration {
			return time.Duration((v*13)%3) * 100 * time.Microsecond
		}}, workers, 0)
		got := collectResults(dyn.Consumer)
		dyn.Spawn(n)
		if n.Wait() != nil {
			return false
		}
		want := wantSquares(tasks)
		if len(*got) != len(want) {
			return false
		}
		for i := range want {
			if (*got)[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNewStaticPanicsOnZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewStatic(core.NewNetwork(), &rangeSource{}, 0, 0)
}

func TestNewDynamicPanicsOnZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewDynamic(core.NewNetwork(), &rangeSource{}, 0, 0)
}

// TestDirectBadIndexDegradesCleanly checks that a retired or
// out-of-range worker index reaching Direct closes the composition
// cleanly instead of failing the process and stranding buffered tokens.
func TestDirectBadIndexDegradesCleanly(t *testing.T) {
	n := core.NewNetwork()
	tasks := n.NewChannel("t", 0)
	idx := n.NewChannel("i", 0)
	out := n.NewChannel("o", 0)
	go func() {
		w := token.NewWriter(idx.Writer())
		w.WriteInt64(0) // valid lane: the first block flows through
		w.WriteInt64(7) // out of range: a stale index after a resize
		token.NewWriter(tasks.Writer()).WriteBlock([]byte{1})
		token.NewWriter(tasks.Writer()).WriteBlock([]byte{2})
	}()
	n.Spawn(&Direct{In: tasks.Reader(), Index: idx.Reader(), Outs: []*core.WritePort{out.Writer()}})
	r := token.NewReader(out.Reader())
	b, err := r.ReadBlock()
	if err != nil || len(b) != 1 || b[0] != 1 {
		t.Fatalf("first block = %v, %v", b, err)
	}
	if _, err := r.ReadBlock(); err != io.EOF {
		t.Fatalf("after bad index: err = %v, want io.EOF (clean cascade)", err)
	}
	if err := n.Wait(); err != nil {
		t.Fatalf("bad index must degrade cleanly, got %v", err)
	}
}

// TestDynamicWorkerKilledMidStream kills one worker lane mid-run and
// checks the composition tears down cleanly — no hard error — and that
// the results delivered before the kill form an exact prefix of the
// reference output (determinacy of what was emitted).
func TestDynamicWorkerKilledMidStream(t *testing.T) {
	const tasks = 200
	n := core.NewNetwork()
	dyn := NewDynamic(n, &rangeSource{max: tasks, sleepFn: func(int64) time.Duration {
		return 200 * time.Microsecond
	}}, 3, 0)
	got := collectResults(dyn.Consumer)
	dyn.Spawn(n)
	// Kill worker 1's input after a few results have flowed: its lane
	// dies, Direct's next write to it fails, and the cascade must wind
	// the whole graph down without n.Wait reporting a failure.
	go func() {
		time.Sleep(5 * time.Millisecond)
		dyn.Workers[1].In.Close()
	}()
	done := make(chan error, 1)
	go func() { done <- n.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker kill must cascade cleanly, got %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("network did not terminate after worker kill")
	}
	want := wantSquares(tasks)
	if len(*got) > tasks {
		t.Fatalf("emitted %d results, more than %d tasks", len(*got), tasks)
	}
	eq(t, *got, want[:len(*got)])
}

// TestFuncSource checks that a source whose Run returns nil ends the
// producer: three tasks, three results.
func TestFuncSource(t *testing.T) {
	calls := 0
	src := funcSource(func() (Task, error) {
		calls++
		if calls > 3 {
			return nil, nil
		}
		return &SquareTask{V: int64(calls)}, nil
	})
	n := core.NewNetwork()
	c := pipeline(n, src, 0)
	got := collectResults(c)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	eq(t, *got, []int64{1, 4, 9})
}
