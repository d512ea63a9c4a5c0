package stream_test

import (
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/deadlock"
	"dpn/internal/graphs"
	"dpn/internal/obs"
	"dpn/internal/stream"
)

// The sampled park clock keeps the park histogram's shape: on the park
// lengths of one Hamming(1500) run at capacity 64 under a 200 µs
// deadlock monitor (the figure-graphs shape), every park is counted,
// and the dpn_conduit_block_seconds p50 of each channel and op lies
// within one bucket of what timing every park gives.
//
// An untimed park reads no clock, so the run's park lengths are
// recorded from its trace: each block and unblock event carries the
// tracer's timestamp. Both estimates replay the same recorded lengths,
// so the scheduler's timing cannot fail the test.
//
// The p50 is compared where the sampled histogram holds at least three
// measured parks (more than 2·parkEvery parks). A shorter series
// carries one or two measurements, the first taken as the graph
// starts, so its histogram is one or two buckets by construction: over
// 300 recorded runs, 12 of 6 529 series, all shorter, had a p50 more
// than one bucket off. dpntop's blocked-time percentage (wait ÷ wall)
// is logged, not gated: a run lasts about 3 ms and most series have 40
// to 200 parks, so a sample of one in 16 misses the every-park figure
// by more than 5 points on most series, and one in 2 still misses it
// by tens of points on the worst (EXPERIMENTS.md, "A park reads no
// clock").
func TestSampledParkClockTracksEveryPark(t *testing.T) {
	const minParks = 2*stream.ParkEvery + 1
	n := core.NewNetwork()
	tr := n.Obs().Tracer()
	tr.Enable()
	start := time.Now()
	sink := graphs.Hamming(n, 1500, 64)
	mon := deadlock.New(n, 200*time.Microsecond)
	mon.Start()
	err := n.Wait()
	mon.Stop()
	wall := time.Since(start)
	tr.Disable()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sink.Values()); got != 1500 {
		t.Fatalf("hamming collected %d values, want 1500", got)
	}

	type series struct{ channel, op string }
	lengths := map[series][]time.Duration{}
	begun := map[series]int64{}
	var blocks, unblocks uint64
	for _, ev := range tr.Events() {
		s := series{ev.Name, ev.Detail}
		switch ev.Type {
		case obs.EvBlock:
			blocks++
			begun[s] = ev.TS
		case obs.EvUnblock:
			unblocks++
			lengths[s] = append(lengths[s], time.Duration(ev.TS-begun[s]))
		}
	}
	if blocks != tr.Count(obs.EvBlock) || unblocks != tr.Count(obs.EvUnblock) || blocks != unblocks {
		t.Fatalf("trace holds %d blocks and %d unblocks of %d and %d recorded; the ring dropped some",
			blocks, unblocks, tr.Count(obs.EvBlock), tr.Count(obs.EvUnblock))
	}

	t.Logf("%d events in the trace, %d of them parks", len(tr.Events()), blocks)
	compared := 0
	for s, ds := range lengths {
		var refWait time.Duration
		var ref obs.DurationCounts
		for _, d := range ds {
			refWait += d
			ref.Observe(d)
		}
		wait, got := stream.ReplayParks(ds)
		var counted int64
		for _, c := range got {
			counted += c
		}
		if counted != int64(len(ds)) {
			t.Errorf("%s %s: %d parks counted of %d", s.channel, s.op, counted, len(ds))
		}
		p50, refP50 := p50Bucket(got, wait), p50Bucket(ref, refWait)
		if len(ds) >= minParks {
			compared++
			if p50 < refP50-1 || p50 > refP50+1 {
				t.Errorf("%s %s, %d parks: p50 in bucket %d, every park's in %d", s.channel, s.op, len(ds), p50, refP50)
			}
		}
		t.Logf("%-6s %-5s %4d parks: p50 bucket %d (every park: %d), BLK %5.1f%% (every park: %5.1f%%)",
			s.channel, s.op, len(ds), p50, refP50, 100*float64(wait)/float64(wall), 100*float64(refWait)/float64(wall))
	}
	if compared == 0 {
		t.Fatalf("no series of %d parks or more in %d parks; the run did not exercise the estimator", minParks, blocks)
	}
}

// p50Bucket is the index of the DurationBuckets bucket that holds the
// median a scrape of c reports.
func p50Bucket(c obs.DurationCounts, total time.Duration) int {
	p50 := c.Sample("dpn_conduit_block_seconds", total, nil).Quantile(0.5)
	i := 0
	for i < len(obs.DurationBuckets) && p50 > obs.DurationBuckets[i] {
		i++
	}
	return i
}
