package stream

import (
	"time"

	"dpn/internal/obs"
)

// Instruments is the block a registered pipe gets: the event tracer and
// the park and growth counts, plain fields the pipe updates under the
// lock every park and growth already holds and a collector reads at
// scrape (see Pipe.Counts). A pipe with nil Instruments pays a single
// branch per operation and counts none of them. Whoever registers the
// pipe creates the block (core.Network, for each channel it
// registers), so this package stays free of naming policy.
type Instruments struct {
	Tracer *obs.Tracer
	Name   string // trace subject, normally the channel name
	parks  Parks
}

// Parks is the park and growth accounting of a registered pipe. The
// arrays are indexed by op: [0] read, [1] write. WaitNanos adds up how
// long parked parties stayed parked — the backpressure watermarks: the
// read total grows while the consumer starves, the write total while
// the producer is throttled by a full buffer — and Durations counts the
// same stalls by length.
type Parks struct {
	Grows     int64
	WaitNanos [2]int64
	Durations [2]obs.DurationCounts
}

// epoch anchors the park clock: time.Since on a monotonic time reads
// the monotonic clock once, where time.Now also reads the wall clock.
var epoch = time.Now()

var opName = [2]string{"read", "write"}

func opOf(write bool) int {
	if write {
		return 1
	}
	return 0
}

// trace records n bytes entering (EvWrite) or leaving (EvRead) the pipe.
func (m *Instruments) trace(typ obs.EventType, n int) {
	if m != nil {
		m.Tracer.Record(typ, m.Name, "", int64(n))
	}
}

// noteGrow records a capacity growth. The pipe's lock is held.
func (m *Instruments) noteGrow(newCap int) {
	if m != nil {
		m.parks.Grows++
		m.Tracer.Record(obs.EvGrow, m.Name, "", int64(newCap))
	}
}

// noteBlock traces a party parking on the pipe and returns the park
// clock's reading, from which noteUnblock measures the stall. The pipe's
// lock is held.
func (m *Instruments) noteBlock(write bool) time.Duration {
	if m == nil {
		return 0
	}
	m.Tracer.Record(obs.EvBlock, m.Name, opName[opOf(write)], 0)
	return time.Since(epoch)
}

// noteUnblock records the parked party resuming after the stall that
// began at t0. The pipe's lock is held.
func (m *Instruments) noteUnblock(write bool, t0 time.Duration) {
	if m != nil {
		d, op := time.Since(epoch)-t0, opOf(write)
		m.parks.Durations[op].Observe(d)
		m.parks.WaitNanos[op] += d.Nanoseconds()
		m.Tracer.Record(obs.EvUnblock, m.Name, opName[op], d.Nanoseconds())
	}
}
