package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

const (
	tracedPairs = 3 // untraced/traced round pairs in a traced run
	// ladderShare is the part of a traced run's seconds the ladder gets;
	// the rest goes to the traced rounds and a short paced phase.
	ladderShare      = 0.5
	tracedPacedShare = 0.1
)

// poller samples levels that only exist while a round runs: goroutine
// count and live mux streams.
type poller struct {
	stop chan struct{}
	wg   sync.WaitGroup

	goroutines int
	sessions   int64
	streams    int64
}

func startPoller(c func() *cluster) *poller {
	p := &poller{stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
			p.goroutines = max(p.goroutines, runtime.NumGoroutine())
			if cl := c(); cl != nil {
				sessions, streams := cl.liveStreams()
				p.sessions = max(p.sessions, sessions)
				p.streams = max(p.streams, streams)
			}
		}
	}()
	return p
}

func (p *poller) finish() {
	close(p.stop)
	p.wg.Wait()
}

// runTraced measures the per-layer metrics of one workload: set-up
// spans, traced rounds next to untraced ones, counts scraped from the
// program's registries, and the ladder.
func runTraced(w workload, opt runOptions) (*report, error) {
	rep := newReport(w, opt)
	if err := w.prepare(opt.seed, opt.div); err != nil {
		return nil, err
	}
	budget := time.Duration(opt.seconds * float64(time.Second))
	spinBefore := spin()
	rec := &recorder{}
	rec.setRun("setup")

	s := &session{w: w, opt: opt}
	s.jobs++
	c, res := guardedOpen(w, true, rec)
	if res.err != nil {
		return rep, fmt.Errorf("%s: traced set-up (seed %d): %w", w.name(), opt.seed, res.err)
	}
	s.live.Store(c)
	defer s.closeCluster()
	setup := rec.durations("setup")
	for _, name := range setupSpans {
		rep.Metrics[name+"_ms"] = float64(setup[name]) / 1e6
	}
	for name, d := range rec.selfTimes("setup") {
		rep.Info["self_ms."+name] = float64(d) / 1e6
	}

	// Untraced and traced rounds in pairs, same process, same nodes: the
	// ratio of their ops/s is what the program's tracing costs.
	s.run("warm-up", func(c *cluster) jobResult { return w.round(c, nil) })
	var plain, traced roundStats
	var counts []sample
	poll := startPoller(s.cluster)
	for i := 0; i < tracedPairs; i++ {
		if c := s.cluster(); c != nil {
			c.setTraced(false)
		}
		s.rec = nil
		s.measuredRound(&plain)

		c := s.cluster()
		if c == nil {
			continue
		}
		c.setTraced(true)
		rec.setRun(fmt.Sprintf("round%d", i))
		s.rec = rec
		before := c.scrape()
		s.measuredRound(&traced)
		if s.cluster() == c {
			counts = append(counts, delta(before, c.scrape())...)
		}
	}
	poll.finish()
	if len(plain.opsPerS) == 0 || len(traced.opsPerS) == 0 {
		rep.Attempted, rep.Failed, rep.Failures = s.jobs, len(s.fail), s.fail
		return rep, fmt.Errorf("%s: no traced round verified: %v", w.name(), s.fail)
	}
	rounds := len(traced.opsPerS)
	rep.Metrics["obs.trace_overhead"] = median(plain.opsPerS) / median(traced.opsPerS)
	rep.Metrics["harness.src_write_share"] = traced.srcBusy.Seconds() / traced.wall.Seconds()
	rep.Metrics["harness.sink_read_share"] = traced.sinkBusy.Seconds() / traced.wall.Seconds()
	for k, v := range deriveCounts(counts, w.cutChannels(), traced.ops, traced.wall, rounds) {
		rep.Metrics[k] = v
	}
	kops := float64(traced.ops) / 1e3
	rep.Metrics["runtime.gc_cycles"] = float64(traced.usage.gcCycles) / float64(rounds)
	rep.Metrics["runtime.gc_pause_ms"] = float64(traced.usage.gcPause) / 1e6 / float64(rounds)
	rep.Metrics["runtime.vol_ctx_switches_per_kop"] = float64(traced.usage.volSwitches) / kops
	rep.Metrics["runtime.invol_ctx_switches_per_kop"] = float64(traced.usage.involSwitches) / kops
	rep.Metrics["runtime.goroutines_peak"] = float64(poll.goroutines)
	rep.Metrics["mux.sessions"] = float64(poll.sessions)
	rep.Metrics["mux.streams_per_session"] = 0
	if poll.sessions > 0 {
		rep.Metrics["mux.streams_per_session"] = float64(poll.streams) / float64(poll.sessions)
	}
	rep.Env.DataConnections = poll.sessions

	// The latency tail, with the program's tracing off again so that it
	// means what latency_p50_ms means: from a short paced phase (which
	// also shows how late the open-loop generator ran), or for a
	// closed-loop workload from the untraced rounds, topped up with more
	// of them if p95 needs more samples.
	if c := s.cluster(); c != nil {
		c.setTraced(false)
	}
	latency := plain.latency
	rep.Metrics["harness.gen_late_ms_p95"] = 0
	if pw, ok := w.(pacedWorkload); ok {
		rec.setRun("paced")
		d := max(time.Duration(float64(budget)*tracedPacedShare), time.Second/time.Duration(opt.div))
		res := s.run("paced", func(c *cluster) jobResult { return pw.paced(c, d, rec) })
		latency = res.latency
		if v, _, err := percentile(res.genLate, 95); err == nil {
			rep.Metrics["harness.gen_late_ms_p95"] = v
		}
	} else {
		s.rec = nil
		for len(latency) < minLatencySamples && len(s.fail) == 0 {
			var more roundStats
			s.measuredRound(&more)
			latency = append(latency, more.latency...)
		}
	}
	for name, p := range map[string]float64{"latency_p50_ms": 50, "latency_p95_ms": 95} {
		v, n, err := percentile(latency, p)
		if err != nil {
			return rep, fmt.Errorf("%s: %s: %w", w.name(), name, err)
		}
		rep.Metrics[name] = v
		rep.Samples[name] = n
	}
	if c := s.cluster(); c != nil {
		if err := c.writeMergedTrace(filepath.Join(outDir, w.name()+".trace.json")); err != nil {
			rep.Notes = append(rep.Notes, "merged trace: "+err.Error())
		}
		s.closeCluster()
	}
	if err := rec.writeChromeTrace(filepath.Join(outDir, w.name()+".spans.json")); err != nil {
		return rep, err
	}

	ladder, err := runLadder(opt.seed, time.Duration(float64(budget)*ladderShare))
	if err != nil {
		return rep, err
	}
	for k, v := range ladder {
		rep.Metrics[k] = v
	}
	rep.Metrics["baseline.seq.ns_per_op"] = w.baseline()

	// The budget: what the rungs predict a verified op costs, over what
	// it measured. Reported, not gated.
	e2e := 1e9 / median(plain.opsPerS)
	rep.Metrics["budget.sum_over_e2e"] = budgetSum(w.name(), rep.Metrics) / e2e
	rep.Info["e2e_ns_per_op"] = e2e
	if relay := rep.Metrics["wire.relay.ns_per_token"]; w.name() == "bulk-wire" && (relay < 0.8*e2e || relay > 1.2*e2e) {
		rep.Notes = append(rep.Notes, fmt.Sprintf("warning: wire.relay is %.2f ns/token, bulk-wire %.2f ns/op: more than 20%% apart", relay, e2e))
	}

	rep.setNoise(spinBefore, spin())
	rep.Attempted, rep.Failed, rep.Failures = s.jobs, len(s.fail), s.fail
	return rep, nil
}

// budgetSum adds up what the ladder predicts one verified op of the
// workload costs: each hop the op makes, at the cost of the rung that
// is that hop, plus the single-threaded oracle for the computing
// itself. Hops are counted from the traced rounds (conduit.tokens is
// tokens written per op) where the graph's shape does not fix them.
func budgetSum(workload string, m map[string]float64) float64 {
	base := m["baseline.seq.ns_per_op"]
	switch workload {
	case "bulk-wire":
		// One token, one mux link hop.
		return base + m["mux.link.ns_per_token"]
	case "stream-analytics":
		// Per record: 2 tokens out over the wire, 3 through a local batch
		// channel to a reduce, and 3/window tokens each through a reduce's
		// output (read by the merge one element at a time), the merge's
		// output, and back over the wire.
		perWindow := 3.0 / streamWindow
		return base + (2+perWindow)*m["mux.link.ns_per_token"] +
			3*m["core.channel.ns_per_token"] + 2*perWindow*m["proclib.hop.ns_per_token"]
	case "figure-graphs":
		// Every token a process writes is one per-element hop.
		return base + m["conduit.tokens"]*m["proclib.hop.ns_per_token"]
	case "task-farm":
		// Per task: the in-proc dispatch machinery, one more gob round trip
		// for the hop through the remote worker, and the search itself
		// spread over the workers.
		return base/float64(runtime.GOMAXPROCS(0)) + m["meta.dispatch.ns_per_op"] + m["token.object.ns_per_op"]
	}
	return 0
}
