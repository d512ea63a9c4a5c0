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
// Stride defaults to 1.
type Sequence struct {
	core.Iterative
	From   int64
	Stride int64
	Out    *core.WritePort

	started bool
	next    int64
}

// Step implements core.Stepper.
func (s *Sequence) Step(env *core.Env) error {
	if !s.started {
		s.next = s.From
		if s.Stride == 0 {
			s.Stride = 1
		}
		s.started = true
	}
	v := s.next
	s.next += s.Stride
	return s.Out.Tokens().WriteInt64(v)
}

// SliceSource writes the elements of Values to Out and then stops.
type SliceSource struct {
	Values []int64
	Out    *core.WritePort

	i int
}

// Step implements core.Stepper.
func (s *SliceSource) Step(env *core.Env) error {
	if s.i >= len(s.Values) {
		return io.EOF
	}
	v := s.Values[s.i]
	s.i++
	return s.Out.Tokens().WriteInt64(v)
}

// FloatSliceSource writes the elements of Values to Out and then stops.
type FloatSliceSource struct {
	Values []float64
	Out    *core.WritePort

	i int
}

// Step implements core.Stepper.
func (s *FloatSliceSource) Step(env *core.Env) error {
	if s.i >= len(s.Values) {
		return io.EOF
	}
	v := s.Values[s.i]
	s.i++
	return s.Out.Tokens().WriteFloat64(v)
}
