package proclib

import (
	"reflect"
	"testing"

	"dpn/internal/core"
)

// A steady-state Step allocates nothing: the codecs live on the ports
// (core.ReadPort.Tokens) and a run process's scratch is an array in
// its struct, so what is left per Step is a read, the arithmetic, and a
// write. Every input holds enough for 200 steady-state runs, so a run
// process moves whole runs throughout. Collect's record of the values
// grows by doubling: fewer than one allocation per Step, which
// AllocsPerRun's integer average reports as 0. Counts, not nanoseconds
// — the gate holds on any machine.
func TestStepAllocatesNothing(t *testing.T) {
	const steps = 200
	const elems = (steps + 2) * runLen
	// source returns the read end of a channel holding n elements
	// k·stride (k = 1…n) and already closed.
	source := func(n int, stride int64) *core.ReadPort {
		ch := core.NewChannel("in", n*8)
		w := ch.Writer().Tokens()
		for k := int64(1); k <= int64(n); k++ {
			if err := w.WriteInt64(k * stride); err != nil {
				t.Fatal(err)
			}
		}
		ch.Writer().Close()
		return ch.Reader()
	}
	sink := func() *core.WritePort { return core.NewChannel("out", elems*8).Writer() }

	// whole marks the run processes every Step of which must move a
	// whole run here: they count what they moved in Done.
	cases := []struct {
		name  string
		proc  core.Stepper
		whole bool
	}{
		{"Scale", &Scale{Factor: 3, In: source(elems, 1), Out: sink()}, true},
		{"Add", &Add{InA: source(elems, 2), InB: source(elems, 3), Out: sink()}, false},
		{"Modulo", &Modulo{P: 3, In: source(elems, 1), Out: sink()}, true},
		{"OrderedMerge", &OrderedMerge{
			Ins: []*core.ReadPort{source(elems, 2), source(elems, 3), source(elems, 5)},
			Out: sink(),
		}, false},
		{"Sequence", &Sequence{From: 1, Out: sink()}, true},
		{"Collect", &Collect{In: source(elems, 1)}, true},
		{"Count", &Count{In: source(elems, 1)}, true},
	}
	for _, c := range cases {
		// The first Step builds the codecs (and OrderedMerge's
		// queues); every Step after it is steady state.
		if err := c.proc.Step(nil); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var err error
		got := testing.AllocsPerRun(steps, func() {
			if e := c.proc.Step(nil); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != 0 {
			t.Errorf("%s: %v allocations per Step, want 0", c.name, got)
		}
		if done := reflect.ValueOf(c.proc).Elem().FieldByName("Done").Int(); c.whole && done != elems {
			t.Errorf("%s: %d elements in %d Steps, want whole runs (%d)", c.name, done, steps+2, elems)
		}
	}
}
