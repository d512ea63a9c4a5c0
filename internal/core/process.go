package core

import (
	"fmt"
	"io"
	"reflect"
)

// Process is a node of the program graph. Run executes the process body
// to completion; returning ends the process, after which the runtime
// closes every port the process holds (the paper's onStop behaviour,
// §3.2), triggering the cascading termination of §3.4.
//
// Most process types do not implement Process directly; they implement
// Stepper and are driven by the synthesized run loop, mirroring
// IterativeProcess in the Java implementation (Figure 4).
type Process interface {
	Run(env *Env) error
}

// Stepper performs one unit of a process's work per call. Step returning
// a termination error (see IsTermination) ends the process normally; any
// other error ends the process and is recorded as a failure.
type Stepper interface {
	Step(env *Env) error
}

// Starter is implemented by processes needing one-time initialization
// that is inappropriate for the constructor (the paper's onStart).
type Starter interface {
	OnStart(env *Env) error
}

// Stopper is implemented by processes needing one-time cleanup beyond
// port closing (the paper's onStop). It runs even if the process failed.
type Stopper interface {
	OnStop(env *Env)
}

// Iterative can be embedded in a process struct to give it a
// configurable iteration limit (§3.4: "Any process can have a fixed
// iteration limit imposed upon it") and a count of its progress.
type Iterative struct {
	// Iterations is the maximum number of elements the process moves;
	// <= 0 means no limit (run until a channel terminates the process).
	Iterations int64
	// Done counts the elements moved so far. A Step that moves a run
	// adds the run's length itself; the step loop counts any other
	// Step as one element. Done is stream state: it ships with a
	// migrating process, so a moved process neither repeats its
	// position nor runs its whole limit again.
	Done int64
}

func (it *Iterative) iterative() *Iterative { return it }

// iterated is implemented by every process that embeds Iterative.
type iterated interface{ iterative() *Iterative }

// PortHolder can be implemented to override the reflective discovery of
// a process's ports. The runtime closes every returned closer when the
// process stops.
type PortHolder interface {
	Ports() []io.Closer
}

// Namer can be implemented to give a process a diagnostic name; the
// default is its Go type name.
type Namer interface {
	ProcessName() string
}

// nameOf derives a diagnostic process name.
func nameOf(p any) string {
	if n, ok := p.(Namer); ok {
		return n.ProcessName()
	}
	t := reflect.TypeOf(p)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// runBody executes a process value: a Process runs directly; a Stepper
// is driven through the synthesized onStart/step/onStop loop of
// Figure 4.
func runBody(p any, env *Env) error {
	switch v := p.(type) {
	case Process:
		return v.Run(env)
	case Stepper:
		return runSteps(v, env)
	default:
		return fmt.Errorf("core: %T implements neither Process nor Stepper", p)
	}
}

// runSteps is the Go transcription of IterativeProcess.run (Figure 4 of
// the paper): onStart once, step until the iteration limit is reached or
// a stream exception occurs, onStop once. The limit counts elements, not
// Step calls (see Iterative.Done), and a process that migrated resumes
// its count where the origin left it.
func runSteps(s Stepper, env *Env) (err error) {
	if st, ok := s.(Stopper); ok {
		defer st.OnStop(env)
	}
	if st, ok := s.(Starter); ok {
		if err := st.OnStart(env); err != nil {
			if IsTermination(err) {
				return nil
			}
			return err
		}
	}
	// A process without Iterative is counted in a local it, so the loop
	// has one shape.
	var local Iterative
	it := &local
	if i, ok := s.(iterated); ok {
		it = i.iterative()
	}
	for it.Iterations <= 0 || it.Done < it.Iterations {
		if env.proc.park.checkpoint() {
			return errEjected
		}
		done := it.Done
		if err := s.Step(env); err != nil {
			if IsTermination(err) {
				return nil
			}
			return err
		}
		if it.Done == done {
			it.Done++
		}
	}
	return nil
}

// PortsOf discovers the channel ports a process holds, by reflection
// over its exported fields: *ReadPort and *WritePort fields, slices of
// them, and the same inside embedded (anonymous) struct fields. A
// process can override discovery by implementing PortHolder. The
// runtime closes all discovered ports when the process stops, which is
// what makes termination cascade through the graph (§3.4).
func PortsOf(p any) []io.Closer {
	if h, ok := p.(PortHolder); ok {
		return h.Ports()
	}
	var out []io.Closer
	collectPorts(reflect.ValueOf(p), &out, 0)
	return out
}

func collectPorts(v reflect.Value, out *[]io.Closer, depth int) {
	if depth > 4 {
		return
	}
	for v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return
	}
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		fv := v.Field(i)
		switch fv.Type() {
		case readPortType:
			if !fv.IsNil() {
				*out = append(*out, fv.Interface().(*ReadPort))
			}
			continue
		case writePortType:
			if !fv.IsNil() {
				*out = append(*out, fv.Interface().(*WritePort))
			}
			continue
		}
		switch fv.Kind() {
		case reflect.Slice, reflect.Array:
			et := fv.Type().Elem()
			if et == readPortType || et == writePortType {
				for j := 0; j < fv.Len(); j++ {
					e := fv.Index(j)
					if !e.IsNil() {
						*out = append(*out, e.Interface().(io.Closer))
					}
				}
			}
		case reflect.Struct:
			if f.Anonymous {
				collectPorts(fv, out, depth+1)
			}
		case reflect.Pointer:
			if f.Anonymous && !fv.IsNil() && fv.Type().Elem().Kind() == reflect.Struct {
				collectPorts(fv, out, depth+1)
			}
		}
	}
}

var (
	readPortType  = reflect.TypeOf((*ReadPort)(nil))
	writePortType = reflect.TypeOf((*WritePort)(nil))
)
