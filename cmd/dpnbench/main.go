// Command dpnbench regenerates every table and figure of the paper's
// evaluation (§5.2):
//
//	dpnbench -table1     Table 1 (sequential execution per CPU class)
//	dpnbench -table2     Table 2 (parallel execution, ideal/static/dynamic)
//	dpnbench -fig19      Figure 19 (elapsed time vs workers, 1..34)
//	dpnbench -fig20      Figure 20 (speedup vs workers, with inflections)
//	dpnbench -overhead   the §5.2 one-worker overhead measurement, run
//	                     for real on this machine's process network
//	dpnbench -seqreal    a real (scaled-down) sequential factorization
//	dpnbench -validate-sim
//	                     the simulator cross-validated against the real
//	                     runtime with sleep-emulated heterogeneous workers
//	dpnbench -all        everything
//
// Tables 1–2 and the figures use the discrete-event cluster simulator
// (see DESIGN.md: the paper's heterogeneous 34-CPU laboratory is
// substituted by simulation); the overhead experiment exercises the
// real runtime. The program's own throughput is measured by the
// benchmark harness (benchmark/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"dpn/internal/cluster"
	"dpn/internal/core"
	"dpn/internal/factor"
	"dpn/internal/meta"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "regenerate Table 1")
		table2   = flag.Bool("table2", false, "regenerate Table 2")
		fig19    = flag.Bool("fig19", false, "regenerate Figure 19")
		fig20    = flag.Bool("fig20", false, "regenerate Figure 20")
		overhead = flag.Bool("overhead", false, "measure real process-network overhead at one worker")
		seqReal  = flag.Bool("seqreal", false, "run a real scaled-down sequential factorization")
		valSim   = flag.Bool("validate-sim", false, "cross-validate the simulator against the real runtime with sleep-emulated heterogeneous workers")
		csv      = flag.Bool("csv", false, "emit the figure series as CSV instead of text")
		all      = flag.Bool("all", false, "run everything")
		bits     = flag.Int("bits", 512, "prime size for the real experiments (the paper uses 512)")
		tasks    = flag.Int64("tasks", 64, "worker tasks for the real experiments")
		batch    = flag.Int64("batch", 2048, "difference values per task (heavier than the paper's 32 so per-task compute dominates on modern hardware)")
	)
	flag.Parse()
	if !(*table1 || *table2 || *fig19 || *fig20 || *overhead || *seqReal || *valSim || *csv) {
		*all = true
	}
	cfg := cluster.PaperConfig()
	if *csv {
		if err := cluster.WriteCurvesCSV(os.Stdout, cfg); err != nil {
			fatal(err)
		}
		return
	}
	if *all || *table1 {
		cluster.WriteTable1(os.Stdout, cfg)
		fmt.Println()
	}
	if *all || *table2 {
		if err := cluster.WriteTable2(os.Stdout, cfg); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *all || *fig19 {
		if err := cluster.WriteFigure19(os.Stdout, cfg); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *all || *fig20 {
		if err := cluster.WriteFigure20(os.Stdout, cfg); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *all || *seqReal {
		runSequentialReal(*bits, *tasks, *batch)
		fmt.Println()
	}
	if *all || *overhead {
		runOverheadReal(*bits, *tasks, *batch)
		fmt.Println()
	}
	if *all || *valSim {
		runSimValidation()
	}
}

// runSimValidation repeats the heterogeneous experiment on the real
// runtime with sleep-emulated CPU speeds and compares against the
// simulator — the validity evidence for substituting the paper's
// cluster with a simulation (see EXPERIMENTS.md).
func runSimValidation() {
	fmt.Println("Simulator cross-validation (4 workers, speeds 2/1/1/0.5, 48 tasks x 8ms)")
	speeds := []float64{2, 1, 1, 0.5}
	const tasks = 48
	const taskMS = 8
	cfg := cluster.Config{
		Classes: []cluster.Class{
			{Name: "fast", SeqTime: float64(tasks*taskMS) / 2, Count: 1},
			{Name: "mid", SeqTime: float64(tasks * taskMS), Count: 2},
			{Name: "slow", SeqTime: float64(tasks*taskMS) / 0.5, Count: 1},
		},
		RefSeqTime: float64(tasks * taskMS),
		TotalTasks: tasks,
	}
	simStatic, err := cluster.Simulate(cfg, cluster.Static, 4)
	if err != nil {
		fatal(err)
	}
	simDyn, err := cluster.Simulate(cfg, cluster.Dynamic, 4)
	if err != nil {
		fatal(err)
	}
	realStatic := runSleepExperiment(true, speeds, tasks, taskMS)
	realDyn := runSleepExperiment(false, speeds, tasks, taskMS)
	fmt.Printf("  static:  simulated %6.1f ms   real %6.1f ms\n",
		simStatic.Elapsed, float64(realStatic.Microseconds())/1000)
	fmt.Printf("  dynamic: simulated %6.1f ms   real %6.1f ms\n",
		simDyn.Elapsed, float64(realDyn.Microseconds())/1000)
}

func runSleepExperiment(static bool, speeds []float64, tasks, taskMS int64) time.Duration {
	n := core.NewNetwork()
	src := &sleepSource{total: tasks, micros: taskMS * 1000}
	var workers []*meta.Worker
	var rest []any
	if static {
		st := meta.NewStatic(n, src, len(speeds), 0)
		workers = st.Workers
		rest = []any{st.Producer, st.Scatter, st.Gather, st.Consumer}
	} else {
		dyn := meta.NewDynamic(n, src, len(speeds), 0)
		workers = dyn.Workers
		rest = []any{dyn.Producer, dyn.Direct, dyn.Turnstile, dyn.IndexCons, dyn.Select, dyn.Consumer}
	}
	start := time.Now()
	for i, w := range workers {
		n.Spawn(&slowWorker{In: w.In, Out: w.Out, Speed: speeds[i]})
	}
	for _, p := range rest {
		n.Spawn(p)
	}
	if err := n.Wait(); err != nil {
		fatal(err)
	}
	return time.Since(start)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpnbench:", err)
	os.Exit(1)
}

// runSequentialReal performs the Table 1 baseline for real at reduced
// scale: the producer/worker/consumer task run methods are invoked
// directly, with no process network.
func runSequentialReal(bits int, tasks, batch int64) {
	fmt.Printf("Real sequential factorization (%d-bit prime, %d tasks x %d differences)\n",
		bits, tasks, batch)
	key, err := factor.GenerateWeakKey(rand.New(rand.NewSource(2003)), bits, tasks-1, batch)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	res, n, err := factor.RunSequential(&factor.SearchSpace{N: key.N, Batch: batch})
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	if res == nil || res.P.Cmp(key.P) != 0 {
		fatal(fmt.Errorf("wrong factor"))
	}
	fmt.Printf("  found P after %d tasks in %v (%.3f ms/task)\n",
		n, elapsed, float64(elapsed.Milliseconds())/float64(n))
}

// runOverheadReal reproduces the §5.2 claim that the process-network
// machinery costs no more than 6–7%% at one worker: the same workload
// runs once via direct invocation and once through the full dynamic
// composition with a single worker.
func runOverheadReal(bits int, tasks, batch int64) {
	fmt.Printf("Real one-worker overhead (%d-bit prime, %d tasks x %d differences)\n",
		bits, tasks, batch)
	key, err := factor.GenerateWeakKey(rand.New(rand.NewSource(2003)), bits, tasks-1, batch)
	if err != nil {
		fatal(err)
	}

	const reps = 3
	direct := time.Duration(1<<62 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if _, _, err := factor.RunSequential(&factor.SearchSpace{N: key.N, Batch: batch}); err != nil {
			fatal(err)
		}
		if d := time.Since(start); d < direct {
			direct = d
		}
	}

	networked := time.Duration(1<<62 - 1)
	for r := 0; r < reps; r++ {
		n := core.NewNetwork()
		dyn := meta.NewDynamic(n, &factor.SearchSpace{N: key.N, Batch: batch}, 1, 0)
		start := time.Now()
		dyn.Spawn(n)
		if err := n.Wait(); err != nil {
			fatal(err)
		}
		if d := time.Since(start); d < networked {
			networked = d
		}
	}

	over := float64(networked-direct) / float64(direct) * 100
	fmt.Printf("  direct invocation: %v\n", direct)
	fmt.Printf("  dynamic network:   %v\n", networked)
	fmt.Printf("  overhead: %.1f%%  (paper reports 6-7%% including real LAN serialization)\n", over)
}
