package proclib

import (
	"testing"

	"dpn/internal/core"
)

// A steady-state Step of an element-at-a-time process allocates
// nothing: the codecs live on the ports (core.ReadPort.Tokens), so
// what is left per element is a read, the arithmetic, and a write.
// Counts, not nanoseconds — the gate holds on any machine.
func TestStepAllocatesNothing(t *testing.T) {
	const steps = 200
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
	sink := func() *core.WritePort { return core.NewChannel("out", (steps+8)*8).Writer() }

	cases := []struct {
		name string
		proc core.Stepper
	}{
		{"Scale", &Scale{Factor: 3, In: source(steps+8, 1), Out: sink()}},
		{"Add", &Add{InA: source(steps+8, 2), InB: source(steps+8, 3), Out: sink()}},
		{"Modulo", &Modulo{P: 3, In: source(steps+8, 1), Out: sink()}},
		{"OrderedMerge", &OrderedMerge{
			Ins: []*core.ReadPort{source(steps+8, 2), source(steps+8, 3), source(steps+8, 5)},
			Out: sink(),
		}},
	}
	for _, c := range cases {
		// The first Step builds the codecs (and OrderedMerge's head
		// slots); every Step after it is steady state.
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
	}
}
