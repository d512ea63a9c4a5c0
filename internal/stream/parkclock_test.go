package stream

import (
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"dpn/internal/obs"
)

// swapParkClock makes clock the park clock until the test ends.
func swapParkClock(t *testing.T, clock func() time.Duration) {
	old := parkClock
	parkClock = clock
	t.Cleanup(func() { parkClock = old })
}

// parkSignal is an Observer that tells the test each time a party
// parks.
type parkSignal chan struct{}

func (s parkSignal) PipeBlocked(*Pipe, bool) { s <- struct{}{} }
func (parkSignal) PipeLinkWait(*Pipe, bool)  {}
func (parkSignal) PipeUnblocked(*Pipe, bool) {}

// The park clock times the 1st, 17th, 33rd … park of one op and reads
// it twice for each, at the park and at the wake-up; the other parks
// read no clock, and each carries the last measured length forward
// into WaitNanos and into that length's Durations bucket. Every park is
// counted: Blocks is the Durations total plus the parties parked now.
func TestParkClockTimesOneParkIn16(t *testing.T) {
	const k = 64
	const parks = k*parkEvery + 1
	// Park i lasts length(i) on the fake clock. The lengths vary from
	// park to park across five buckets, so a park that carried anything
	// but the last timed park's length would show.
	length := func(i int) time.Duration {
		return time.Duration(i%7+1) * []time.Duration{300, 3e3, 30e3, 300e3, 3e6}[i%5]
	}
	var now, reads atomic.Int64
	swapParkClock(t, func() time.Duration {
		reads.Add(1)
		return time.Duration(now.Load())
	})

	p := NewPipe(1)
	parked := make(parkSignal, 1)
	p.SetHooks(parked, &Instruments{Name: "p"})
	done := make(chan error, 1)
	go func() {
		b := make([]byte, 1)
		for i := 0; i < parks; i++ {
			if _, err := p.Read(b); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	// want is what parks 0 … i-1 must have counted, by the rule written
	// out here: a timed park's own length, an untimed one the last timed
	// length, into the bucket sort.SearchFloat64s finds for it.
	var want Parks
	var timed int64
	check := func(i int, parkedNow int64) {
		t.Helper()
		c, _ := p.Counts()
		if c.WaitNanos != want.WaitNanos || c.Durations != want.Durations {
			t.Fatalf("after %d parks: wait %v, durations %v; want %v, %v",
				i, c.WaitNanos, c.Durations[0], want.WaitNanos, want.Durations[0])
		}
		var ended int64
		for _, n := range c.Durations[0] {
			ended += n
		}
		if c.Blocks[0] != int64(i)+parkedNow || c.Blocks[0] != ended+parkedNow {
			t.Fatalf("after %d parks, %d parked now: %d blocks, %d durations", i, parkedNow, c.Blocks[0], ended)
		}
		wantReads := 2 * timed
		if parkedNow == 1 && i%parkEvery == 0 {
			wantReads++ // park i is timed and has read the clock once
		}
		if got := reads.Load(); got != wantReads {
			t.Fatalf("park %d begun: %d clock reads, want %d", i, got, wantReads)
		}
	}
	var carried time.Duration
	for i := 0; i < parks; i++ {
		<-parked // park i has begun, so park i-1 has ended
		check(i, 1)
		if i%parkEvery == 0 {
			carried = length(i)
			timed++
		}
		want.WaitNanos[0] += int64(carried)
		want.Durations[0][sort.SearchFloat64s(obs.DurationBuckets, carried.Seconds())]++
		now.Add(int64(length(i)))
		if _, err := p.Write([]byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	check(parks, 0)
	if timed != k+1 {
		t.Fatalf("%d timed parks, want %d", timed, k+1)
	}
}
