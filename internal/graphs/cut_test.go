package graphs

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/deadlock"
)

// channelNamed finds a registered channel by name.
func channelNamed(t *testing.T, n *core.Network, name string) *core.Channel {
	t.Helper()
	for _, ch := range n.Channels() {
		if ch.Name() == name {
			return ch
		}
	}
	t.Fatalf("no channel %q", name)
	return nil
}

// TestCutStopsSieveSourceAtOnce: when the collector of SieveFirstN has
// its primes, the cut closes every filter's input at once, so the
// unbounded integer source stops within a buffer's worth of writes.
// Under the lazy §3.4 cascade alone it kept going for 24 000–300 000
// more, until a surviving element had worked its way down to each
// filter in turn.
//
// The count is taken from outside, so a run in which the host
// deschedules the closing goroutine lets the source run on for that
// long; such a run is repeated, up to three times per mode.
func TestCutStopsSieveSourceAtOnce(t *testing.T) {
	for _, mode := range []SieveMode{SieveIterative, SieveRecursive} {
		var more []int64
		for len(more) < 3 {
			more = append(more, sieveWritesAfterStop(t, mode))
			if more[len(more)-1] <= 256 {
				break
			}
		}
		if last := more[len(more)-1]; last > 256 {
			t.Fatalf("mode %d: ints took %v more writes after the collector stopped, want <= 256", mode, more)
		}
	}
}

// sieveWritesAfterStop runs SieveFirstN(200) and counts the writes into
// its integer channel after the collector has closed its input.
func sieveWritesAfterStop(t *testing.T, mode SieveMode) int64 {
	n := core.NewNetwork()
	n.Obs().Registry().SetSeriesLimit(0)
	sink := SieveFirstN(n, 200, mode)
	primes := channelNamed(t, n, "primes")
	for !primes.Pipe().ReadClosed() {
		runtime.Gosched()
	}
	atStop := intsWritten(n)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, want := sink.Values(), primesRef(1224); !reflect.DeepEqual(got, want) {
		t.Fatalf("mode %d: got %d primes, want the first 200", mode, len(got))
	}
	end := intsWritten(n)
	if end < 1222 { // 2 … 1223, the 200th prime
		t.Fatalf("mode %d: the ints series counts %d writes, fewer than the source made", mode, end)
	}
	return end - atStop
}

// intsWritten scrapes the elements written into the channel "ints".
func intsWritten(n *core.Network) int64 {
	var sum int64
	for _, s := range n.Obs().Registry().Samples() {
		if s.Name == "dpn_conduit_tokens_total" && s.Label("channel") == "ints" && s.Label("op") == "write" {
			sum += s.Value
		}
	}
	return sum
}

// TestCutLeavesSplicedConsStreamIntact: a Cons that splices itself out
// (Figure 9) hands its input to its consumer. The runtime must forget
// that the Cons held it, or a cut of the finished Cons would close a
// stream the consumer is still reading.
func TestCutLeavesSplicedConsStreamIntact(t *testing.T) {
	want := fibRef(90)
	for i := 0; i < 20; i++ {
		n := core.NewNetwork()
		sink := Fibonacci(n, 90, true)
		if err := n.Wait(); err != nil {
			t.Fatal(err)
		}
		if got := sink.Values(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: got %v, want %v", i, got, want)
		}
	}
}

// TestCutHammingMonitorPassesTrackResolutions: a goroutine the pipe has
// signalled no longer counts as blocked, so the quiescence wake fires
// when the graph is really stuck, not on every hand-off. The monitor
// polls only hourly here, so every pass it makes is a wake; while a
// signalled goroutine still counted as blocked it made ~870 of them for
// 22 resolutions.
func TestCutHammingMonitorPassesTrackResolutions(t *testing.T) {
	n := core.NewNetwork()
	sink := Hamming(n, 1500, 64)
	mon := deadlock.New(n, time.Hour)
	mon.Start()
	err := n.Wait()
	mon.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sink.Values(), hammingRef(1500); !reflect.DeepEqual(got, want) {
		t.Fatalf("hamming: got %d values, not the reference", len(got))
	}
	var checks, events int64
	for _, s := range n.Obs().Registry().Samples() {
		switch s.Name {
		case "dpn_deadlock_checks_total":
			checks += s.Value
		case "dpn_deadlock_events_total":
			events += s.Value
		}
	}
	t.Logf("%d monitor passes for %d deadlock events", checks, events)
	if events == 0 {
		t.Fatal("no artificial deadlock resolved; the graph did not exercise the monitor")
	}
	if checks > 3*events+10 {
		t.Fatalf("%d monitor passes for %d deadlock events, want <= 3 x events + 10", checks, events)
	}
}
