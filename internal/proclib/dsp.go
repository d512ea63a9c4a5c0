package proclib

import (
	"dpn/internal/core"
)

// The paper motivates process networks with signal processing
// applications ("they are well suited to a variety of signal
// processing and scientific computation applications", §1). This file
// provides the basic streaming DSP blocks a sample-rate application
// needs: an FIR filter, a unit-delay line, a decimator, and an
// upsampler. All operate on float64 sample streams.

// FIR is a finite-impulse-response filter: each output sample is the
// dot product of the coefficient vector with the most recent input
// samples, y[n] = Σ Taps[k]·x[n−k]. The filter history starts at zero
// (the stream is treated as preceded by silence).
type FIR struct {
	core.Iterative
	Taps []float64
	In   *core.ReadPort
	Out  *core.WritePort

	// History is the ring of the last len(Taps) inputs and Pos the
	// slot the next input goes to; both ship with a migrating filter.
	History []float64
	Pos     int
}

// Step implements core.Stepper.
func (f *FIR) Step(env *core.Env) error {
	if len(f.History) != len(f.Taps) {
		f.History = make([]float64, len(f.Taps))
	}
	x, err := f.In.Tokens().ReadFloat64()
	if err != nil {
		return err
	}
	f.History[f.Pos] = x
	acc := 0.0
	idx := f.Pos
	for _, tap := range f.Taps {
		acc += tap * f.History[idx]
		idx--
		if idx < 0 {
			idx = len(f.History) - 1
		}
	}
	f.Pos++
	if f.Pos == len(f.History) {
		f.Pos = 0
	}
	return f.Out.Tokens().WriteFloat64(acc)
}

// Delay outputs Initial values first and then echoes its input — the
// z⁻ᵏ operator of dataflow diagrams, and exactly a float64 Cons. It is
// the standard way to break feedback loops in signal-processing
// graphs.
type Delay struct {
	core.Iterative
	Initial []float64
	In      *core.ReadPort
	Out     *core.WritePort
	// Emitted records that Initial has been produced; it ships with a
	// migrating Delay, which does not produce it again.
	Emitted bool
}

// OnStart implements core.Starter: the initial samples are produced
// before any input is consumed.
func (d *Delay) OnStart(env *core.Env) error {
	if d.Emitted {
		return nil
	}
	w := d.Out.Tokens()
	for _, v := range d.Initial {
		if err := w.WriteFloat64(v); err != nil {
			return err
		}
	}
	d.Emitted = true
	return nil
}

// Step implements core.Stepper.
func (d *Delay) Step(env *core.Env) error {
	v, err := d.In.Tokens().ReadFloat64()
	if err != nil {
		return err
	}
	return d.Out.Tokens().WriteFloat64(v)
}

// Decimate keeps one sample of every Factor input samples (the first
// of each group), reducing the sample rate.
type Decimate struct {
	core.Iterative
	Factor int
	In     *core.ReadPort
	Out    *core.WritePort
}

// Step implements core.Stepper.
func (d *Decimate) Step(env *core.Env) error {
	r := d.In.Tokens()
	keep, err := r.ReadFloat64()
	if err != nil {
		return err
	}
	n := d.Factor
	if n < 1 {
		n = 1
	}
	for i := 1; i < n; i++ {
		if _, err := r.ReadFloat64(); err != nil {
			return err
		}
	}
	return d.Out.Tokens().WriteFloat64(keep)
}

// Upsample emits each input sample followed by Factor−1 zeros,
// raising the sample rate (zero-stuffing; follow with an FIR to
// interpolate).
type Upsample struct {
	core.Iterative
	Factor int
	In     *core.ReadPort
	Out    *core.WritePort
}

// Step implements core.Stepper.
func (u *Upsample) Step(env *core.Env) error {
	v, err := u.In.Tokens().ReadFloat64()
	if err != nil {
		return err
	}
	w := u.Out.Tokens()
	if err := w.WriteFloat64(v); err != nil {
		return err
	}
	n := u.Factor
	for i := 1; i < n; i++ {
		if err := w.WriteFloat64(0); err != nil {
			return err
		}
	}
	return nil
}
