package deadlock

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dpn/internal/core"
)

// On the first true-deadlock verdict the monitor must explain itself:
// per-channel occupancy/blocked-party watermarks and a goroutine
// profile land on DumpTo, once per outage.
func TestMonitorTrueDeadlockDump(t *testing.T) {
	n := core.NewNetwork()
	ab := n.NewChannel("ab", 64)
	ba := n.NewChannel("ba", 64)
	n.Spawn(&readFirst{In: ab.Reader(), Out: ba.Writer()})
	n.Spawn(&readFirst{In: ba.Reader(), Out: ab.Writer()})
	m := New(n, time.Millisecond)
	var dump bytes.Buffer
	m.DumpTo = &dump

	deadline := time.Now().Add(5 * time.Second)
	for m.Check() != StatusTrueDeadlock {
		if time.Now().After(deadline) {
			t.Fatal("true deadlock not reported")
		}
		time.Sleep(time.Millisecond)
	}
	// More passes in the same outage must not re-dump.
	m.Check()
	m.Check()

	out := dump.String()
	for _, want := range []string{
		"true deadlock",
		"channel watermarks",
		"ab",
		"ba",
		"readers-blocked",
		"read-wait",
		"goroutine profile",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "true deadlock:"); got != 1 {
		t.Fatalf("dumped %d times for one outage, want 1", got)
	}

	ab.Writer().Close()
	ba.Writer().Close()
	ab.Reader().Close()
	ba.Reader().Close()
	n.Wait()
}
