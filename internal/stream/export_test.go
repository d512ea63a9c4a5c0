package stream

import (
	"time"

	"dpn/internal/obs"
)

// ParkEvery is the park clock's sampling period.
const ParkEvery = parkEvery

// ReplayParks runs one op's park lengths, in order, through a fresh
// Instruments on a fake park clock, and returns what the sampled park
// clock counts for them: the wait total and the durations.
func ReplayParks(lengths []time.Duration) (wait time.Duration, durations obs.DurationCounts) {
	var now time.Duration
	old := parkClock
	parkClock = func() time.Duration { return now }
	defer func() { parkClock = old }()
	var m Instruments
	for _, d := range lengths {
		t0 := m.noteBlock(false)
		now += d
		m.noteUnblock(false, t0)
	}
	parks := m.counts()
	return time.Duration(parks.WaitNanos[0]), parks.Durations[0]
}
