package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The ladder drives each module's public API in isolation, on the data
// shape the workloads use, all in this one process: rungs run
// interleaved (A B C … A B C …), so a change of machine speed hits
// every rung of a repetition alike and cancels in the ratios.

// rung is one step of the ladder. open builds whatever the rung needs
// (nodes, files); the returned run moves n tokens or performs n ops and
// verifies what arrived. Only run is timed.
type rung struct {
	name  string
	unit  string // ns_per_token, ns_per_op or us_per_op
	batch int    // n is a positive multiple of this
	// hashed marks a batch rung whose run verifies the walk hash of the
	// n/batch batches it moved; timeRung has the expectation computed
	// before the clock starts.
	hashed bool
	open   func(d *ladderData) (openRung, error)
}

type openRung struct {
	run   func(n int) error
	extra func() map[string]float64 // counts read after the last run, may be nil
	close func()                    // may be nil
}

const ladderReps = 5

// outDir is where spans, traces, reports and scratch files go; main
// sets it from -out, the smoke test to a temporary directory.
var outDir = filepath.Join("benchmark", "out")

// scratchDir is a directory inside the output directory for files a
// rung creates and removes (WAL segments, with real fsyncs).
func scratchDir() string {
	dir := filepath.Join(outDir, "tmp")
	_ = os.MkdirAll(dir, 0o755) // a failure shows as the MkdirTemp error that follows
	return dir
}

// rungTiming is one timed run of a rung.
type rungTiming struct {
	elapsed time.Duration
	mallocs uint64
	extra   map[string]float64
	err     error
}

// timeRung opens the rung, runs it once untimed at its smallest size,
// once timed at size n, and closes it, all under the watchdog. Only
// the timed run's wall time and allocations are returned.
func timeRung(r rung, d *ladderData, n int) (rungTiming, error) {
	t, err := guarded(r.name, roundDeadline, func() (t rungTiming) {
		o, err := r.open(d)
		if err != nil {
			return rungTiming{err: fmt.Errorf("open: %w", err)}
		}
		if o.close != nil {
			defer o.close()
		}
		if err := o.run(r.batch); err != nil {
			return rungTiming{err: fmt.Errorf("warm-up: %w", err)}
		}
		if r.hashed {
			d.wantHash(n / r.batch)
		}
		before := readUsage()
		start := time.Now()
		t.err = o.run(n)
		t.elapsed = time.Since(start)
		t.mallocs = readUsage().sub(before).mallocs
		if t.err == nil && o.extra != nil {
			t.extra = o.extra()
		}
		return t
	})
	if err == nil {
		err = t.err
	}
	if err != nil {
		return t, fmt.Errorf("ladder rung %s: %w", r.name, err)
	}
	return t, nil
}

// runLadder measures every rung within roughly the given budget and
// returns the ladder's per-layer metrics by name.
func runLadder(seed int64, budget time.Duration) (map[string]float64, error) {
	d, err := newLadderData(seed)
	if err != nil {
		return nil, err
	}
	rungs := ladderRungs()
	perRun := budget / time.Duration((ladderReps+1)*len(rungs))

	// Probe each rung at its smallest size to choose n for the budget.
	size := make(map[string]int)
	for _, r := range rungs {
		n0 := r.batch * 8
		t, err := timeRung(r, d, n0)
		if err != nil {
			return nil, err
		}
		n := int(float64(n0) * float64(perRun) / float64(max(t.elapsed, time.Microsecond)))
		size[r.name] = max(n/r.batch*r.batch, n0)
	}

	cost := make(map[string][]float64)   // per unit, in the rung's unit
	allocs := make(map[string][]float64) // per thousand units
	out := make(map[string]float64)
	for rep := 0; rep < ladderReps; rep++ {
		for _, r := range rungs {
			n := size[r.name]
			t, err := timeRung(r, d, n)
			if err != nil {
				return nil, err
			}
			per := float64(t.elapsed.Nanoseconds()) / float64(n)
			if r.unit == "us_per_op" {
				per /= 1e3
			}
			cost[r.name] = append(cost[r.name], per)
			allocs[r.name] = append(allocs[r.name], float64(t.mallocs)/float64(n)*1e3)
			for k, v := range t.extra {
				out[k] = v
			}
		}
	}

	for _, r := range rungs {
		out[r.name+"."+r.unit] = median(cost[r.name])
		out[r.name+".allocs_per_kop"] = median(allocs[r.name])
	}
	for _, branch := range ladderBranches {
		for i := 1; i < len(branch); i++ {
			// Ratios are taken repetition by repetition, then the median:
			// both rungs of a pair ran within the same few hundred ms.
			prev, cur := cost[branch[i-1]], cost[branch[i]]
			ratios := make([]float64, len(cur))
			for j := range cur {
				ratios[j] = cur[j] / prev[j]
			}
			out[branch[i]+".over_prev"] = median(ratios)
		}
	}
	out["blocks.ratio"] = d.ratio
	return out, nil
}
