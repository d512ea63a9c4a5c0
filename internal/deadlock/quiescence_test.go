package deadlock

import (
	"slices"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/graphs"
)

// With Poll an hour long the ticker never fires: every check below runs
// because the network signalled quiescence (core.Network.Quiescent).
func TestQuiescenceWakeResolvesWithoutPolling(t *testing.T) {
	const deadline = 5 * time.Second
	finish := func(t *testing.T, n *core.Network) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- n.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(deadline):
			t.Fatal("network did not finish: nothing woke the monitor")
		}
	}

	t.Run("figure13", func(t *testing.T) {
		n := core.NewNetwork()
		g := buildFigure13(n, 8)
		m := New(n, time.Hour)
		m.Start()
		defer m.Stop()
		finish(t, n)
		if m.Resolutions() == 0 {
			t.Fatal("expected at least one resolution event")
		}
		if len(g.got) != 64 {
			t.Fatalf("merge consumed %d values, want 64", len(g.got))
		}
	})

	t.Run("hamming", func(t *testing.T) {
		n := core.NewNetwork()
		sink := graphs.Hamming(n, 1500, 64)
		m := New(n, time.Hour)
		m.Start()
		defer m.Stop()
		finish(t, n)
		if got := sink.Values(); !slices.Equal(got, hammingOracle(1500)) {
			t.Fatalf("hamming: %d values that do not match the oracle", len(got))
		}
	})

	t.Run("true-deadlock", func(t *testing.T) {
		n := core.NewNetwork()
		ab := n.NewChannel("ab", 64)
		ba := n.NewChannel("ba", 64)
		n.Spawn(&readFirst{In: ab.Reader(), Out: ba.Writer()})
		n.Spawn(&readFirst{In: ba.Reader(), Out: ab.Writer()})
		m := New(n, time.Hour)
		reported := make(chan struct{}, 1)
		m.OnEvent = func(e Event) {
			if e.Status == StatusTrueDeadlock {
				select {
				case reported <- struct{}{}:
				default:
				}
			}
		}
		m.Start()
		defer m.Stop()
		select {
		case <-reported:
		case <-time.After(deadline):
			t.Fatal("true deadlock not reported: nothing woke the monitor")
		}
		for _, ch := range []*core.Channel{ab, ba} {
			ch.Writer().Close()
			ch.Reader().Close()
		}
		finish(t, n)
	})
}

// A network can deadlock before its monitor starts, and the wake its
// last park raised can be taken by then (here the test drains it). No
// later event signals, so the monitor must check once as it starts; the
// hour-long poll passed to New arms nothing.
func TestMonitorStartedAfterQuiescenceChecks(t *testing.T) {
	const deadline = 5 * time.Second
	quiesce := func(t *testing.T, n *core.Network) {
		t.Helper()
		waitFor(t, "every process to block", func() bool { return n.Live() > 0 && n.Blocked() >= n.Live() })
		select {
		case <-n.Quiescent():
		default:
			t.Fatal("the last park raised no wake")
		}
	}

	t.Run("artificial", func(t *testing.T) {
		n := core.NewNetwork()
		g := buildFigure13(n, 8)
		quiesce(t, n)
		m := New(n, time.Hour)
		m.Start()
		defer m.Stop()
		done := make(chan error, 1)
		go func() { done <- n.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(deadline):
			t.Fatal("the deadlock that predates Start was never resolved")
		}
		if m.Resolutions() == 0 || len(g.got) != 64 {
			t.Fatalf("%d resolutions, %d values merged; want some and 64", m.Resolutions(), len(g.got))
		}
	})

	t.Run("true", func(t *testing.T) {
		n := core.NewNetwork()
		ab := n.NewChannel("ab", 64)
		ba := n.NewChannel("ba", 64)
		n.Spawn(&readFirst{In: ab.Reader(), Out: ba.Writer()})
		n.Spawn(&readFirst{In: ba.Reader(), Out: ab.Writer()})
		t.Cleanup(func() {
			for _, ch := range []*core.Channel{ab, ba} {
				ch.Writer().Close()
				ch.Reader().Close()
			}
			n.Wait()
		})
		quiesce(t, n)
		reported := make(chan struct{}, 1)
		m := New(n, time.Hour)
		m.OnEvent = func(e Event) {
			if e.Status == StatusTrueDeadlock {
				select {
				case reported <- struct{}{}:
				default:
				}
			}
		}
		m.Start()
		defer m.Stop()
		select {
		case <-reported:
		case <-time.After(deadline):
			t.Fatal("the deadlock that predates Start was never reported")
		}
	})
}

// hammingOracle is the closed form of Figure 12's stream: the ascending
// integers 2^i·3^j·5^k, by the classic three-pointer merge.
func hammingOracle(count int) []int64 {
	h := make([]int64, count)
	h[0] = 1
	var i2, i3, i5 int
	for i := 1; i < count; i++ {
		h[i] = min(2*h[i2], 3*h[i3], 5*h[i5])
		if h[i] == 2*h[i2] {
			i2++
		}
		if h[i] == 3*h[i3] {
			i3++
		}
		if h[i] == 5*h[i5] {
			i5++
		}
	}
	return h
}

// parked is a live process that is not blocked in any channel: it waits
// on a plain Go channel until released.
type parked struct{ release chan struct{} }

func (p *parked) Run(*core.Env) error {
	<-p.release
	return nil
}

// drain reads and discards elements until its channel ends.
type drain struct{ In *core.ReadPort }

func (d *drain) Step(*core.Env) error {
	_, err := d.In.Tokens().ReadInt64()
	return err
}

// waitFor polls cond until it holds or the test's patience runs out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// A check now runs on every quiescence signal — about once per element
// on a pipelined graph — so every pass that records no Event must
// allocate nothing. One case per way such a pass ends.
func TestCheckAllocatesNothing(t *testing.T) {
	const runs = 20
	gate := func(t *testing.T, want Status, pass func() Status) {
		t.Helper()
		var got Status
		allocs := testing.AllocsPerRun(runs, func() { got = pass() })
		if got != want {
			t.Fatalf("pass ended %v, want %v", got, want)
		}
		if allocs != 0 {
			t.Fatalf("%v allocations per pass, want 0", allocs)
		}
	}

	t.Run("running", func(t *testing.T) {
		n := core.NewNetwork()
		p := &parked{release: make(chan struct{})}
		n.Spawn(p)
		defer func() { close(p.release); n.Wait() }()
		gate(t, StatusRunning, New(n, time.Hour).Check)
	})

	t.Run("wake-pending", func(t *testing.T) {
		// drain is the one live process, blocked reading an empty
		// channel. Each pass writes an element, which signals it, and
		// checks before it runs: AllocsPerRun holds GOMAXPROCS at 1 and
		// the pass never yields, so the wake is always still pending.
		// The capacity takes every element the passes write.
		n := core.NewNetwork()
		ch := n.NewChannel("c", 64<<10)
		n.Spawn(&drain{In: ch.Reader()})
		defer func() { ch.Writer().Close(); n.Wait() }()
		waitFor(t, "drain to block", func() bool { return n.Blocked() == 1 })
		m := New(n, time.Hour)
		w := ch.Writer().Tokens()
		gate(t, StatusRunning, func() Status {
			if err := w.WriteInt64(1); err != nil {
				t.Fatal(err)
			}
			return m.Check()
		})
	})

	// A cycle blocked reading is a true deadlock, stable for as long as
	// the test wants it.
	cycle := func(t *testing.T) (*core.Network, *Monitor) {
		n := core.NewNetwork()
		ab := n.NewChannel("ab", 64)
		ba := n.NewChannel("ba", 64)
		n.Spawn(&readFirst{In: ab.Reader(), Out: ba.Writer()})
		n.Spawn(&readFirst{In: ba.Reader(), Out: ab.Writer()})
		t.Cleanup(func() {
			for _, ch := range []*core.Channel{ab, ba} {
				ch.Writer().Close()
				ch.Reader().Close()
			}
			n.Wait()
		})
		waitFor(t, "the cycle to block", func() bool { return n.Blocked() == 2 })
		return n, New(n, time.Hour)
	}

	t.Run("generation-race", func(t *testing.T) {
		// A scheduling event between the stability snapshot and the end
		// of the channel walk voids the pass. Handing resolve a stale
		// generation is that race, made deterministic.
		n, m := cycle(t)
		gate(t, StatusRunning, func() Status { return m.resolve(n.Generation() - 1) })
		if evs := m.Events(); len(evs) != 0 {
			t.Fatalf("a voided pass recorded %v", evs)
		}
	})

	t.Run("true-deadlock-reported", func(t *testing.T) {
		_, m := cycle(t)
		waitFor(t, "the first report", func() bool { return m.Check() == StatusTrueDeadlock })
		gate(t, StatusTrueDeadlock, m.Check)
	})

	t.Run("growth-exhausted-reported", func(t *testing.T) {
		// Full channels at MaxCapacity: the walk scans them for growth
		// and finds none, then takes the edge-only path.
		n := core.NewNetwork()
		buildFigure13(n, 8)
		t.Cleanup(func() {
			for _, ch := range n.Channels() {
				ch.Writer().Close()
				ch.Reader().Close()
			}
			n.Wait()
		})
		m := New(n, time.Hour)
		m.MaxCapacity = 16
		waitFor(t, "growth to run out", func() bool { return m.Check() == StatusTrueDeadlock })
		gate(t, StatusTrueDeadlock, m.Check)
	})
}

// Parks' rule picks the smallest full channel; among equals, the one
// registered first.
func TestSmallestFullChannelTieBreak(t *testing.T) {
	n := core.NewNetwork()
	chans := []*core.Channel{n.NewChannel("big", 16), n.NewChannel("first", 8), n.NewChannel("second", 8)}
	for _, ch := range chans {
		n.Spawn(&source{Out: ch.Writer()}) // writes until its channel is full
	}
	t.Cleanup(func() {
		for _, ch := range chans {
			ch.Reader().Close()
		}
		n.Wait()
	})
	waitFor(t, "every writer to block on a full channel", func() bool { return n.Blocked() == 3 })
	m := New(n, time.Hour)
	waitFor(t, "a resolution", func() bool { return m.Check() == StatusResolved })
	ev := m.Events()[0]
	if ev.Channel != "first" || ev.NewCap != 16 {
		t.Fatalf("grew %q to %d, want \"first\" to 16", ev.Channel, ev.NewCap)
	}
}
