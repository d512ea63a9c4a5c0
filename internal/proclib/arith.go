package proclib

import (
	"io"

	"dpn/internal/core"
	"dpn/internal/token"
)

// Add reads one int64 from each input and writes their sum — the
// element-wise stream adder of the Fibonacci network (Figure 2).
type Add struct {
	core.Iterative
	InA *core.ReadPort
	InB *core.ReadPort
	Out *core.WritePort
}

// Step implements core.Stepper.
func (a *Add) Step(env *core.Env) error {
	x, err := a.InA.Tokens().ReadInt64()
	if err != nil {
		return err
	}
	y, err := a.InB.Tokens().ReadInt64()
	if err != nil {
		return err
	}
	return a.Out.Tokens().WriteInt64(x + y)
}

// Scale multiplies each int64 element by Factor — the multiplier of the
// Hamming network (Figure 12). It is a run process (see runLen).
type Scale struct {
	core.Iterative
	Factor int64
	In     *core.ReadPort
	Out    *core.WritePort

	buf [runLen]int64
}

// Step implements core.Stepper.
func (s *Scale) Step(env *core.Env) error {
	vs := s.buf[:runOf(&s.Iterative)]
	n, err := s.In.Tokens().ReadInt64s(vs)
	if err != nil {
		return err
	}
	vs = vs[:n]
	for i := range vs {
		vs[i] *= s.Factor
	}
	if err := s.Out.Tokens().WriteInt64s(vs); err != nil {
		return err
	}
	s.Done += int64(n)
	return nil
}

// Divide reads one float64 from each input and writes InA/InB — the
// Divide process of the Newton square-root network (Figure 11).
type Divide struct {
	core.Iterative
	InA *core.ReadPort
	InB *core.ReadPort
	Out *core.WritePort
}

// Step implements core.Stepper.
func (d *Divide) Step(env *core.Env) error {
	x, err := d.InA.Tokens().ReadFloat64()
	if err != nil {
		return err
	}
	y, err := d.InB.Tokens().ReadFloat64()
	if err != nil {
		return err
	}
	return d.Out.Tokens().WriteFloat64(x / y)
}

// Average reads one float64 from each input and writes their mean
// (Figure 11).
type Average struct {
	core.Iterative
	InA *core.ReadPort
	InB *core.ReadPort
	Out *core.WritePort
}

// Step implements core.Stepper.
func (a *Average) Step(env *core.Env) error {
	x, err := a.InA.Tokens().ReadFloat64()
	if err != nil {
		return err
	}
	y, err := a.InB.Tokens().ReadFloat64()
	if err != nil {
		return err
	}
	return a.Out.Tokens().WriteFloat64((x + y) / 2)
}

// Equal reads one float64 from each input and writes a bool element
// reporting equality of the two values (Figure 11: detecting that
// Newton iteration has converged to the precision limit). A nonzero
// Tolerance relaxes the test to |a−b| ≤ Tolerance, which guards against
// the last-bit oscillation floating-point fixed points can exhibit.
type Equal struct {
	core.Iterative
	InA       *core.ReadPort
	InB       *core.ReadPort
	Out       *core.WritePort
	Tolerance float64
}

// Step implements core.Stepper.
func (e *Equal) Step(env *core.Env) error {
	x, err := e.InA.Tokens().ReadFloat64()
	if err != nil {
		return err
	}
	y, err := e.InB.Tokens().ReadFloat64()
	if err != nil {
		return err
	}
	eq := x == y
	if !eq && e.Tolerance > 0 {
		d := x - y
		if d < 0 {
			d = -d
		}
		eq = d <= e.Tolerance
	}
	return e.Out.Tokens().WriteBool(eq)
}

// Guard passes an element of Width bytes from In to Out when the
// corresponding Control element is true and discards it otherwise
// (§3.4, Figure 11). With StopAfterPass set, the process stops right
// after the first passed element — the data-dependent termination used
// by the square-root network.
type Guard struct {
	core.Iterative
	In            *core.ReadPort
	Control       *core.ReadPort
	Out           *core.WritePort
	Width         int // element width in bytes; default 8
	StopAfterPass bool

	buf []byte
}

// Step implements core.Stepper.
func (g *Guard) Step(env *core.Env) error {
	w := g.Width
	if w <= 0 {
		w = token.Float64Size
	}
	if len(g.buf) != w {
		g.buf = make([]byte, w)
	}
	if _, err := io.ReadFull(g.In, g.buf); err != nil {
		return err
	}
	pass, err := g.Control.Tokens().ReadBool()
	if err != nil {
		return err
	}
	if !pass {
		return nil
	}
	if _, err := g.Out.Write(g.buf); err != nil {
		return err
	}
	if g.StopAfterPass {
		return io.EOF
	}
	return nil
}
