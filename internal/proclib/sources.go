package proclib

import (
	"io"

	"dpn/internal/core"
)

// Constant writes Value to Out once per step. The paper's Fibonacci
// network uses Constant(1, out, 1) to inject a single seed element
// (Figure 6).
type Constant struct {
	core.Iterative
	Value int64
	Out   *core.WritePort
}

// Step implements core.Stepper.
func (c *Constant) Step(env *core.Env) error {
	return c.Out.Tokens().WriteInt64(c.Value)
}

// ConstantFloat writes Value (a float64) to Out once per step.
type ConstantFloat struct {
	core.Iterative
	Value float64
	Out   *core.WritePort
}

// Step implements core.Stepper.
func (c *ConstantFloat) Step(env *core.Env) error {
	return c.Out.Tokens().WriteFloat64(c.Value)
}

// Sequence writes From, From+Stride, From+2·Stride, … to Out. With an
// iteration limit it is the paper's bounded integer source ("produce the
// sequence of integers from 2 to 100 and then stop", §3.4). A zero
// Stride defaults to 1. It is a run process (see runLen): each Step
// writes the next run in one write. Its position is From + Done·Stride,
// so a migrated Sequence goes on where it stopped.
type Sequence struct {
	core.Iterative
	From   int64
	Stride int64
	Out    *core.WritePort

	buf [runLen]int64
}

// Step implements core.Stepper.
func (s *Sequence) Step(env *core.Env) error {
	stride := s.Stride
	if stride == 0 {
		stride = 1
	}
	vs := s.buf[:runOf(&s.Iterative)]
	v := s.From + s.Done*stride
	for i := range vs {
		vs[i] = v
		v += stride
	}
	if err := s.Out.Tokens().WriteInt64s(vs); err != nil {
		return err
	}
	s.Done += int64(len(vs))
	return nil
}

// SliceSource writes the elements of Values to Out and then stops. Next
// is the index of the next element to write; it ships with a migrating
// source, which does not start again from the beginning.
type SliceSource struct {
	Values []int64
	Out    *core.WritePort
	Next   int
}

// Step implements core.Stepper.
func (s *SliceSource) Step(env *core.Env) error {
	if s.Next >= len(s.Values) {
		return io.EOF
	}
	if err := s.Out.Tokens().WriteInt64(s.Values[s.Next]); err != nil {
		return err
	}
	s.Next++
	return nil
}

// FloatSliceSource writes the elements of Values to Out and then stops.
// Next is the index of the next element to write, as in SliceSource.
type FloatSliceSource struct {
	Values []float64
	Out    *core.WritePort
	Next   int
}

// Step implements core.Stepper.
func (s *FloatSliceSource) Step(env *core.Env) error {
	if s.Next >= len(s.Values) {
		return io.EOF
	}
	if err := s.Out.Tokens().WriteFloat64(s.Values[s.Next]); err != nil {
		return err
	}
	s.Next++
	return nil
}
