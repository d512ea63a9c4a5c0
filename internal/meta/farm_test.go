package meta

import (
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/deadlock"
)

// TestFarmUnderMonitorDoesNotGrowWhileALaneComputes runs the farm under a
// deadlock monitor that checks only when the network reports quiescence
// (it has no peers, so no timer: its poll argument is ignored). Every
// 10th task computes for 30 ms, so for long stretches one lane is busy
// while everything else waits on it. A lane that computes is progress: the monitor must see no
// deadlock, artificial or true, and must grow neither the producer's
// channel nor the consumer's. Every party the farm parks in a pipe has
// to be a process for that to hold — a bare goroutine parked on a lane
// counts as blocked without counting as live.
func TestFarmUnderMonitorDoesNotGrowWhileALaneComputes(t *testing.T) {
	const tasks = 60
	source := &rangeSource{max: tasks, sleepFn: func(v int64) time.Duration {
		if v%10 == 0 {
			return 30 * time.Millisecond
		}
		return 0
	}}
	t.Run("fixed", func(t *testing.T) {
		n := core.NewNetwork()
		dyn := NewDynamic(n, source, 3, 0)
		got := collectResults(dyn.Consumer)
		initial := map[string]int{}
		watched := map[string]*core.Channel{}
		for _, ch := range n.Channels() {
			if ch.Name() == "tasks" || ch.Name() == "ordered" {
				initial[ch.Name()] = ch.Pipe().Cap()
				watched[ch.Name()] = ch
			}
		}
		if len(watched) != 2 {
			t.Fatalf("farm has no tasks/ordered channels: %v", watched)
		}
		mon := deadlock.New(n, time.Hour)
		dyn.Spawn(n)
		mon.Start()
		waitNet(t, n)
		mon.Stop()
		eq(t, *got, wantSquares(tasks))
		var events int64
		for _, s := range n.Obs().Registry().Samples() {
			if s.Name == "dpn_deadlock_events_total" {
				events += s.Value
			}
		}
		if events != 0 {
			t.Errorf("dpn_deadlock_events_total = %d while a lane was computing: %+v", events, mon.Events())
		}
		for name, ch := range watched {
			if c := ch.Pipe().Cap(); c != initial[name] {
				t.Errorf("%s grew from %d to %d bytes", name, initial[name], c)
			}
		}
	})
}
