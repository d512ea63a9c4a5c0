// Package cluster simulates the paper's evaluation environment: the
// heterogeneous laboratory cluster of §5.2 (five CPU classes, 25
// machines, 34 CPUs on 100 Mb/s switched ethernet). The experiments in
// Tables 1–2 and Figures 19–20 depend on hardware heterogeneity that a
// single-CPU reproduction machine cannot provide, so this package
// substitutes a discrete-event simulation: virtual workers execute the
// 2048-task factorization workload under the same three scheduling
// regimes the paper measures —
//
//   - Ideal: perfect parallelism, no overhead (the paper's computed
//     bound: the speed of W workers is the sum of their CPU speeds).
//   - Static: equal task counts per worker (Scatter/Gather, Figure 16);
//     the elapsed time is governed by the slowest CPU in use.
//   - Dynamic: on-demand distribution (Direct + indexed merge,
//     Figure 17); each worker receives a new task when it completes
//     one, so faster CPUs process more tasks.
//
// The overhead model has two calibrated components, following the
// paper's own analysis (§5.2): a per-task serialization/communication
// factor (the 6–7 % measured at one worker) and a serial startup cost
// per worker ("this startup overhead increases as the number of
// workers increases and accounts for virtually the entire difference
// between the ideal case and the dynamically load balanced case").
package cluster

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Class describes one CPU class of Table 1.
type Class struct {
	Name    string
	SeqTime float64 // minutes for the full workload run sequentially (Table 1)
	Count   int     // CPUs of this class available as workers
	Desc    string
}

// Speed returns the class speed normalized to class C = 1.00, exactly
// as the paper normalizes ("speeds normalized to a 1 GHz Pentium
// III").
func (c Class) Speed(refSeqTime float64) float64 { return refSeqTime / c.SeqTime }

// PaperClasses reproduces Table 1's five CPU classes. The class D
// speed cell is blank in the paper; it follows from its time
// (22.50/22.78 ≈ 0.99). CPU counts are inferred from the worker
// allocation the paper describes: the ideal-speed inflection at 7→8
// workers places 1 A and 6 B CPUs before the first C; the inflection
// at 26→27 workers places the first class-E CPU at position 27, so
// classes A–D contribute 26 CPUs (1+6+15+4) and the 8-way class-E
// machine completes the 34.
var PaperClasses = []Class{
	{Name: "A", SeqTime: 11.63, Count: 1, Desc: "2.4 GHz Pentium 4"},
	{Name: "B", SeqTime: 13.13, Count: 6, Desc: "2.2 GHz Pentium 4"},
	{Name: "C", SeqTime: 22.50, Count: 15, Desc: "1.0 GHz Pentium III"},
	{Name: "D", SeqTime: 22.78, Count: 4, Desc: "1.0 GHz Pentium III (dual)"},
	{Name: "E", SeqTime: 28.14, Count: 8, Desc: "8 × 700 MHz Pentium III Xeon"},
}

// Config parameterizes the simulated experiment.
type Config struct {
	Classes    []Class
	RefSeqTime float64 // sequential time of the reference class (C), minutes
	TotalTasks int     // worker tasks in the workload (the paper uses 2048)

	// CommFactorDynamic is the per-task serialization/communication
	// overhead of the dynamic composition, as a fraction of compute
	// time (the paper measures 6–7 % at one worker).
	CommFactorDynamic float64
	// CommFactorStatic is the same for the static composition, which
	// has less bookkeeping (paper: 12.15/11.63 − 1 ≈ 4.5 %).
	CommFactorStatic float64
	// StartupPerWorker is the serial cost, in minutes, of constructing
	// and distributing one worker process to its compute server.
	StartupPerWorker float64
}

// PaperConfig returns the configuration calibrated against the paper's
// published numbers.
func PaperConfig() Config {
	return Config{
		Classes:           PaperClasses,
		RefSeqTime:        22.50,
		TotalTasks:        2048,
		CommFactorDynamic: 0.065,
		CommFactorStatic:  0.045,
		StartupPerWorker:  0.0028,
	}
}

// SkewedConfig returns a deliberately skewed synthetic cluster for the
// elasticity experiments: five single-CPU speed classes spanning a 16×
// spread (4, 2, 1, 0.5, 0.25 relative to the reference class). With
// one CPU per class the static scheme's lock-step rotation is pinned to
// the 0.25× straggler while the on-demand scheme lets the 4× CPU race
// ahead — the widest static-vs-dynamic gap the five-class shape can
// express.
func SkewedConfig() Config {
	ref := 20.0
	return Config{
		Classes: []Class{
			{Name: "S4", SeqTime: ref / 4, Count: 1, Desc: "4× reference"},
			{Name: "S2", SeqTime: ref / 2, Count: 1, Desc: "2× reference"},
			{Name: "S1", SeqTime: ref, Count: 1, Desc: "reference"},
			{Name: "S05", SeqTime: ref / 0.5, Count: 1, Desc: "0.5× reference"},
			{Name: "S025", SeqTime: ref / 0.25, Count: 1, Desc: "0.25× straggler"},
		},
		RefSeqTime:        ref,
		TotalTasks:        512,
		CommFactorDynamic: 0.065,
		CommFactorStatic:  0.045,
		StartupPerWorker:  0.0028,
	}
}

// WorkerSpeeds lists the speeds of the first n workers, allocated
// fastest-first as in the paper ("CPUs in the fastest categories are
// used first").
func (cfg Config) WorkerSpeeds(n int) ([]float64, error) {
	classes := append([]Class(nil), cfg.Classes...)
	sort.SliceStable(classes, func(i, j int) bool {
		return classes[i].SeqTime < classes[j].SeqTime
	})
	var speeds []float64
	for _, c := range classes {
		for i := 0; i < c.Count; i++ {
			speeds = append(speeds, c.Speed(cfg.RefSeqTime))
		}
	}
	if n > len(speeds) {
		return nil, fmt.Errorf("cluster: %d workers requested, only %d CPUs available", n, len(speeds))
	}
	return speeds[:n], nil
}

// MaxWorkers reports the total CPU count.
func (cfg Config) MaxWorkers() int {
	n := 0
	for _, c := range cfg.Classes {
		n += c.Count
	}
	return n
}

// Policy selects the load-balancing scheme.
type Policy int

const (
	// Ideal is the paper's theoretical bound.
	Ideal Policy = iota
	// Static is equal pre-assignment (Figure 16).
	Static
	// Dynamic is on-demand distribution (Figure 17).
	Dynamic
)

func (p Policy) String() string {
	switch p {
	case Ideal:
		return "ideal"
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Result is one simulated run.
type Result struct {
	Policy  Policy
	Workers int
	Elapsed float64 // minutes
	Speed   float64 // normalized speed = RefSeqTime / Elapsed
	// TasksPerWorker records how many tasks each worker executed (nil
	// for Ideal).
	TasksPerWorker []int
}

// Simulate runs the workload with the given policy and worker count.
func Simulate(cfg Config, policy Policy, workers int) (Result, error) {
	speeds, err := cfg.WorkerSpeeds(workers)
	if err != nil {
		return Result{}, err
	}
	res := Result{Policy: policy, Workers: workers}
	switch policy {
	case Ideal:
		total := 0.0
		for _, s := range speeds {
			total += s
		}
		res.Elapsed = cfg.RefSeqTime / total
		res.Speed = total
		return res, nil
	case Static:
		res.Elapsed, res.TasksPerWorker = cfg.simulateStatic(speeds)
	case Dynamic:
		res.Elapsed, res.TasksPerWorker = cfg.simulateDynamic(speeds)
	default:
		return Result{}, fmt.Errorf("cluster: unknown policy %v", policy)
	}
	res.Speed = cfg.RefSeqTime / res.Elapsed
	return res, nil
}

// taskDuration returns the simulated time one task takes on a worker
// of the given speed under the given per-task overhead factor.
func (cfg Config) taskDuration(speed, commFactor float64) float64 {
	compute := cfg.RefSeqTime / float64(cfg.TotalTasks) / speed
	return compute * (1 + commFactor)
}

// simulateStatic pre-assigns tasks round-robin (Scatter) and collects
// them in lock-step (Gather): the run ends when the last worker
// finishes its fixed share, so the slowest CPU governs the makespan.
func (cfg Config) simulateStatic(speeds []float64) (float64, []int) {
	w := len(speeds)
	counts := make([]int, w)
	for t := 0; t < cfg.TotalTasks; t++ {
		counts[t%w]++
	}
	end := 0.0
	for i, s := range speeds {
		start := float64(i+1) * cfg.StartupPerWorker
		finish := start + float64(counts[i])*cfg.taskDuration(s, cfg.CommFactorStatic)
		end = math.Max(end, finish)
	}
	return end, counts
}

// completion is a pending task completion in the event queue.
type completion struct {
	at     float64
	worker int
}

type completionHeap []completion

func (h completionHeap) Len() int           { return len(h) }
func (h completionHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h completionHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)        { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// simulateDynamic is the discrete-event simulation of the on-demand
// composition: every completion event hands the finishing worker the
// next task, exactly as the Turnstile's index stream drives the Direct
// process (Figures 17–18).
func (cfg Config) simulateDynamic(speeds []float64) (float64, []int) {
	w := len(speeds)
	counts := make([]int, w)
	var q completionHeap
	remaining := cfg.TotalTasks
	// Initial distribution: one task per worker, staggered by the
	// serial startup of constructing and shipping each worker.
	for i := 0; i < w && remaining > 0; i++ {
		start := float64(i+1) * cfg.StartupPerWorker
		heap.Push(&q, completion{at: start + cfg.taskDuration(speeds[i], cfg.CommFactorDynamic), worker: i})
		counts[i]++
		remaining--
	}
	end := 0.0
	for q.Len() > 0 {
		c := heap.Pop(&q).(completion)
		end = math.Max(end, c.at)
		if remaining > 0 {
			heap.Push(&q, completion{
				at:     c.at + cfg.taskDuration(speeds[c.worker], cfg.CommFactorDynamic),
				worker: c.worker,
			})
			counts[c.worker]++
			remaining--
		}
	}
	return end, counts
}
