package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// sizes are the fixed input sizes of the workloads: work is a fixed
// input size, never a fixed duration, so per-op counts repeat exactly.
// They were calibrated once on a 2-core box so that a saturate round
// takes about a second, then frozen; they are not flags. README.md and
// BENCHMARK.json restate them.
var sizes = struct {
	bulkBatches    int           // 4096-token batches per bulk-wire round
	bulkPacePeriod time.Duration // one 64-token batch per period
	streamRecords  int           // records per stream-analytics round
	streamPaceRate int           // records/s in the paced phase
	fibCount       int
	hammingCount   int
	hammingCap     int // initial channel capacity, bytes
	hammingReps    int
	sieveCount     int
	deadlockPoll   time.Duration
	farmTasks      int
}{
	bulkBatches:    15000,
	bulkPacePeriod: time.Millisecond,
	streamRecords:  350_000,
	streamPaceRate: 50_000,
	fibCount:       90,
	hammingCount:   1500,
	hammingCap:     64,
	hammingReps:    40,
	sieveCount:     200,
	deadlockPoll:   200 * time.Microsecond,
	farmTasks:      2000,
}

const (
	settleTimeout = 30 * time.Second
	roundDeadline = 60 * time.Second // watchdog: no round may hang the run
	coldSetups    = 21
	minRounds     = 3
	// minLatencySamples lets p95 be reported: minBeyond samples beyond it.
	minLatencySamples = minBeyond * 20
	// saturateShare is the part of the measured seconds a workload with
	// a paced phase spends on saturate rounds.
	saturateShare = 0.6
)

// jobResult is what one whole job — a saturate round, a paced phase or
// the first job after a cold set-up — reports.
type jobResult struct {
	ops     int64         // verified ops
	wall    time.Duration // first op produced → last op verified
	firstOp time.Time     // when the first verified op reached the sink
	latency []float64     // ms: per paced sample, per task, or per graph job
	genLate []float64     // ms: how late the open-loop generator ran, per batch
	// Time inside the harness's own WriteInt64s / ReadInt64s calls.
	srcBusy, sinkBusy time.Duration
	err               error
}

// workload is one of the four named workloads. The implementations are
// in adapter.go because they call the program.
type workload interface {
	name() string
	// prepare builds inputs and expected outputs from the seed; div
	// shrinks the sizes (1 for a real run, 100 for the smoke test).
	prepare(seed int64, div int) error
	// baseline is the single-threaded oracle's cost, ns per op.
	baseline() float64
	// open does a cold set-up on fresh nodes and runs a minimal job; the
	// result's firstOp is when the first verified op reached the sink.
	open(traced bool, rec *recorder) (*cluster, jobResult)
	// round runs one saturate job of fixed size on warm nodes.
	round(c *cluster, rec *recorder) jobResult
	// cutChannels names the channels that cross the wire.
	cutChannels() []string
}

// pacedWorkload is a workload with an open-loop phase besides its
// saturate rounds; the others are closed-loop by construction.
type pacedWorkload interface {
	workload
	// paced sends on a fixed schedule for d, whatever the system does.
	paced(c *cluster, d time.Duration, rec *recorder) jobResult
}

func workloads() []workload {
	return []workload{&bulkWire{}, &streamAnalytics{}, &figureGraphs{}, &taskFarm{}}
}

// runOptions are the settings of one run of one workload.
type runOptions struct {
	seed    int64
	seconds float64
	trace   bool
	div     int // size divisor: 1, or 100 in the smoke test
}

// guarded runs fn under the watchdog: on expiry it dumps every
// goroutine to the output directory and returns an error, so a hang
// costs one deadline, never the whole run. fn keeps running in its
// goroutine; the caller tears down what it was using.
func guarded[T any](name string, deadline time.Duration, fn func() T) (T, error) {
	done := make(chan T, 1)
	go func() { done <- fn() }()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case v := <-done:
		return v, nil
	case <-timer.C:
		path := filepath.Join(outDir, fmt.Sprintf("%s.hang.%d.txt", name, time.Now().UnixNano()))
		if f, err := os.Create(path); err == nil {
			pprof.Lookup("goroutine").WriteTo(f, 2)
			f.Close()
		}
		var zero T
		return zero, fmt.Errorf("%s: no result within %v; goroutines dumped to %s", name, deadline, path)
	}
}

// opened is what a cold set-up returns.
type opened struct {
	c   *cluster
	res jobResult
}

// guardedOpen does a cold set-up under the watchdog.
func guardedOpen(w workload, traced bool, rec *recorder) (*cluster, jobResult) {
	o, err := guarded(w.name(), roundDeadline, func() opened {
		c, res := w.open(traced, rec)
		return opened{c, res}
	})
	if err != nil {
		return nil, jobResult{err: err}
	}
	if o.res.err != nil && o.c != nil {
		o.c.close()
		o.c = nil
	}
	return o.c, o.res
}

// session is a workload's warm cluster plus the bookkeeping to replace
// it after a failed job.
type session struct {
	w    workload
	opt  runOptions
	live atomic.Pointer[cluster] // nil between a failed job and the next set-up
	rec  *recorder
	fail []string // what went wrong, one line per failed job
	jobs int      // jobs attempted
}

func (s *session) cluster() *cluster { return s.live.Load() }

// closeCluster tears the warm nodes down, if there are any.
func (s *session) closeCluster() {
	if c := s.live.Swap(nil); c != nil {
		c.close()
	}
}

// reopen tears the nodes down and sets up fresh ones.
func (s *session) reopen() error {
	s.closeCluster()
	c, res := guardedOpen(s.w, false, nil)
	if res.err != nil {
		return res.err
	}
	s.live.Store(c)
	return nil
}

// run executes one job under the watchdog and counts it.
func (s *session) run(kind string, job func(c *cluster) jobResult) jobResult {
	s.jobs++
	if s.cluster() == nil {
		if err := s.reopen(); err != nil {
			s.fail = append(s.fail, fmt.Sprintf("%s: set-up: %v", kind, err))
			return jobResult{err: err}
		}
	}
	c := s.cluster()
	res, err := guarded(s.w.name(), roundDeadline, func() jobResult { return job(c) })
	if err != nil {
		res = jobResult{err: err}
	}
	if res.err != nil {
		s.fail = append(s.fail, fmt.Sprintf("%s (seed %d): %v", kind, s.opt.seed, res.err))
		// Whatever state the failure left behind is not measured again.
		s.closeCluster()
	}
	return res
}

// roundStats are the per-round samples the end-to-end metrics are
// medians of.
type roundStats struct {
	opsPerS    []float64
	cpuUsPerOp []float64
	allocPerOp []float64
	latency    []float64
	peakRSS    []float64 // MiB, high-water mark of each round
	usage      usage     // summed over measured rounds
	ops        int64
	wall       time.Duration
	srcBusy    time.Duration
	sinkBusy   time.Duration
}

func (rs *roundStats) add(res jobResult, u usage) {
	ops := float64(res.ops)
	rs.opsPerS = append(rs.opsPerS, ops/res.wall.Seconds())
	rs.cpuUsPerOp = append(rs.cpuUsPerOp, float64(u.cpu.Microseconds())/ops)
	rs.allocPerOp = append(rs.allocPerOp, float64(u.allocBytes)/ops)
	rs.latency = append(rs.latency, res.latency...)
	rs.ops += res.ops
	rs.wall += res.wall
	rs.srcBusy += res.srcBusy
	rs.sinkBusy += res.sinkBusy
	rs.usage = rs.usage.add(u)
}

// measuredRound runs one saturate round and, if it verified, adds its
// samples to rs.
func (s *session) measuredRound(rs *roundStats) {
	_ = resetPeakRSS() // the caller has reported a failure once; the peak is then the process's
	before := readUsage()
	res := s.run("round", func(c *cluster) jobResult { return s.w.round(c, s.rec) })
	if res.err != nil {
		return
	}
	rs.add(res, readUsage().sub(before))
	if rss, err := peakRSSMiB(); err == nil {
		rs.peakRSS = append(rs.peakRSS, rss)
	}
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(w workload, opt runOptions) (*report, error) {
	rep := newReport(w, opt)
	if err := w.prepare(opt.seed, opt.div); err != nil {
		return nil, err
	}
	spinBefore := spin()
	if err := resetPeakRSS(); err != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf("peak_rss_mb is the process-wide peak, not a round's: clear_refs: %v", err))
	}

	// Cold set-ups: inputs ready → first verified op, on fresh nodes.
	s := &session{w: w, opt: opt}
	var setups []float64
	for i := 0; i < coldSetups; i++ {
		s.jobs++
		start := time.Now()
		c, res := guardedOpen(w, false, nil)
		if res.err != nil {
			s.fail = append(s.fail, fmt.Sprintf("set-up (seed %d): %v", opt.seed, res.err))
			continue
		}
		setups = append(setups, res.firstOp.Sub(start).Seconds())
		if i < coldSetups-1 {
			c.close()
		} else {
			s.live.Store(c)
		}
	}
	defer s.closeCluster()

	// One warm-up round, then identical measured rounds until the
	// saturate share of the seconds is used.
	s.run("warm-up", func(c *cluster) jobResult { return w.round(c, nil) })
	budget := time.Duration(opt.seconds * float64(time.Second))
	pw, hasPaced := w.(pacedWorkload)
	satBudget := budget
	if hasPaced {
		satBudget = time.Duration(float64(budget) * saturateShare)
	}
	var rs roundStats
	runtime.GC()
	enough := func() bool {
		// A workload without a paced phase takes its latency samples from
		// the rounds, and p95 needs minBeyond samples beyond it.
		return len(rs.opsPerS) >= minRounds && (hasPaced || len(rs.latency) >= minLatencySamples)
	}
	for start := time.Now(); !enough() || time.Since(start) < satBudget; {
		s.measuredRound(&rs)
		if len(s.fail) > minRounds {
			break
		}
	}

	latency := rs.latency
	var genLate []float64
	if hasPaced {
		res := s.run("paced", func(c *cluster) jobResult { return pw.paced(c, budget-satBudget, nil) })
		latency, genLate = res.latency, res.genLate
	}

	spinAfter := spin()
	rep.setNoise(spinBefore, spinAfter)
	rep.Attempted, rep.Failed, rep.Failures = s.jobs, len(s.fail), s.fail
	if len(rs.opsPerS) == 0 || len(setups) == 0 {
		return rep, fmt.Errorf("%s: no round verified: %v", w.name(), s.fail)
	}
	rep.put("ops_per_s", rs.opsPerS)
	rep.put("cpu_us_per_op", rs.cpuUsPerOp)
	rep.put("alloc_bytes_per_op", rs.allocPerOp)
	rep.put("setup_s", setups)
	rep.put("peak_rss_mb", rs.peakRSS)
	// The latencies are in the report and in -compare, not among the
	// bounded metrics (see perLayer).
	for _, p := range []struct {
		name string
		p    float64
	}{{"latency_p50_ms", 50}, {"latency_p95_ms", 95}} {
		sum, n, err := windowedPercentile(latency, p.p)
		if err != nil {
			return rep, fmt.Errorf("%s: %s: %w", w.name(), p.name, err)
		}
		rep.Metrics[p.name] = sum.Median
		rep.Detail[p.name] = sum
		rep.Samples[p.name] = n
	}
	if len(genLate) > 0 {
		if v, _, err := percentile(genLate, 95); err == nil {
			rep.Info["harness.gen_late_ms_p95"] = v
		}
	}
	rep.Info["rounds"] = float64(len(rs.opsPerS))
	rep.Info["ops_per_round"] = float64(rs.ops) / float64(len(rs.opsPerS))
	return rep, nil
}
