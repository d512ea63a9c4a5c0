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

	// The park clock's sampling state, by op (see noteBlock): parks
	// begun (it wraps at 2¹⁶, a multiple of parkEvery); the Durations
	// bucket and the length of the last timed park, which every untimed
	// park after it carries forward (the first bucket and zero until
	// the op's first timed park has ended); and the untimed parks ended
	// since, which fold adds to parks. These and the fields above fill
	// the block's first 64 bytes, the only ones an untimed park touches.
	begun      [2]uint16
	lastBucket [2]uint8
	carried    [2]uint32
	lastWait   [2]time.Duration
	parks      Parks
}

// Parks is the park and growth accounting of a registered pipe. The
// arrays are indexed by op: [0] read, [1] write. WaitNanos adds up how
// long parked parties stayed parked — the backpressure watermarks: the
// read total grows while the consumer starves, the write total while
// the producer is throttled by a full buffer — and Durations counts the
// same stalls by length. Every park is counted in Durations, but only
// one in parkEvery is timed: WaitNanos and the lengths are estimates.
type Parks struct {
	Grows     int64
	WaitNanos [2]int64
	Durations [2]obs.DurationCounts
}

// parkEvery is the park clock's sampling period: of the parks of one
// pipe and op, the 1st, (parkEvery+1)th, (2·parkEvery+1)th, … are
// timed (obs.Sampled). An untimed park reads no clock; it carries the
// last timed park's length forward, into WaitNanos and into that
// park's Durations bucket. So park counts stay exact, counters stay
// monotone, and a pipe that parks once is measured exactly.
const parkEvery = 16

// untimed is what noteBlock returns for a park it does not time.
const untimed time.Duration = -1

// epoch anchors the park clock: time.Since on a monotonic time reads
// the monotonic clock once, where time.Now also reads the wall clock.
var epoch = time.Now()

// parkClock reads the park clock. Only a timed park calls it, twice:
// as it parks and as it resumes. Tests swap it for a fake clock.
var parkClock = func() time.Duration { return time.Since(epoch) }

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

// noteBlock traces a party parking on the pipe and, if this park is
// one the clock times, returns the park clock's reading, from which
// noteUnblock measures the stall; otherwise it returns untimed. The
// pipe's lock is held.
func (m *Instruments) noteBlock(write bool) time.Duration {
	if m == nil {
		return 0
	}
	op := opOf(write)
	m.Tracer.Record(obs.EvBlock, m.Name, opName[op], 0)
	timed := obs.Sampled(uint64(m.begun[op]), parkEvery)
	m.begun[op]++
	if !timed {
		return untimed
	}
	return parkClock()
}

// noteUnblock records the parked party resuming after the stall that
// began at t0: measured if noteBlock timed it, the op's last measured
// stall if t0 is untimed. The pipe's lock is held.
func (m *Instruments) noteUnblock(write bool, t0 time.Duration) {
	if m == nil {
		return
	}
	op := opOf(write)
	if t0 == untimed {
		m.carried[op]++
	} else {
		m.fold(op)
		m.lastWait[op] = parkClock() - t0
		m.lastBucket[op] = uint8(m.parks.Durations[op].Observe(m.lastWait[op]))
		m.parks.WaitNanos[op] += m.lastWait[op].Nanoseconds()
	}
	m.Tracer.Record(obs.EvUnblock, m.Name, opName[op], m.lastWait[op].Nanoseconds())
}

// fold counts the op's carried parks into parks: each is one more park
// in the last timed park's bucket and that park's length more wait.
// The pipe's lock is held.
func (m *Instruments) fold(op int) {
	n := int64(m.carried[op])
	m.parks.Durations[op][m.lastBucket[op]] += n
	m.parks.WaitNanos[op] += n * m.lastWait[op].Nanoseconds()
	m.carried[op] = 0
}

// counts returns the park and growth counts with every ended park in
// them. The pipe's lock is held.
func (m *Instruments) counts() Parks {
	m.fold(0)
	m.fold(1)
	return m.parks
}
