package proclib

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"dpn/internal/core"
)

// Print reads elements from In and prints one per line — the Print
// process of Figures 2 and 7. Set Iterations to bound the output ("stop
// after printing 100 numbers", §3.4). Format selects the element type:
// "int64" (default), "float64", or "string" (length-prefixed).
type Print struct {
	core.Iterative
	In     *core.ReadPort
	Format string
	Label  string

	w io.Writer
}

// SetOutput redirects the printed output (default os.Stdout). The writer
// is not serialized; a migrated Print process reverts to stdout on the
// destination machine.
func (p *Print) SetOutput(w io.Writer) { p.w = w }

// Step implements core.Stepper.
func (p *Print) Step(env *core.Env) error {
	out := p.w
	if out == nil {
		out = os.Stdout
	}
	r := p.In.Tokens()
	var text string
	switch p.Format {
	case "", "int64":
		v, err := r.ReadInt64()
		if err != nil {
			return err
		}
		text = fmt.Sprintf("%d", v)
	case "float64":
		v, err := r.ReadFloat64()
		if err != nil {
			return err
		}
		text = fmt.Sprintf("%.17g", v)
	case "string":
		v, err := r.ReadString()
		if err != nil {
			return err
		}
		text = v
	default:
		return fmt.Errorf("proclib: unknown Print format %q", p.Format)
	}
	if p.Label != "" {
		_, err := fmt.Fprintf(out, "%s: %s\n", p.Label, text)
		return err
	}
	_, err := fmt.Fprintln(out, text)
	return err
}

// Collect reads int64 elements and records them in memory. It is the
// standard observable sink for tests and examples; Values is safe to
// call after the network has finished (or concurrently). It is a run
// process (see runLen).
type Collect struct {
	core.Iterative
	In *core.ReadPort

	mu   sync.Mutex
	vals []int64
	buf  [runLen]int64
}

// Step implements core.Stepper.
func (c *Collect) Step(env *core.Env) error {
	vs := c.buf[:runOf(&c.Iterative)]
	n, err := c.In.Tokens().ReadInt64s(vs)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.vals = append(c.vals, vs[:n]...)
	c.mu.Unlock()
	c.Done += int64(n)
	return nil
}

// Values returns a snapshot of the collected elements.
func (c *Collect) Values() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.vals...)
}

// CollectFloat is Collect for float64 elements.
type CollectFloat struct {
	core.Iterative
	In *core.ReadPort

	mu   sync.Mutex
	vals []float64
}

// Step implements core.Stepper.
func (c *CollectFloat) Step(env *core.Env) error {
	v, err := c.In.Tokens().ReadFloat64()
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.vals = append(c.vals, v)
	c.mu.Unlock()
	return nil
}

// Values returns a snapshot of the collected elements.
func (c *CollectFloat) Values() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.vals...)
}

// Count consumes int64 elements and counts them without storing values.
// It is a run process (see runLen).
type Count struct {
	core.Iterative
	In *core.ReadPort

	n   atomic.Int64
	buf [runLen]int64
}

// Step implements core.Stepper.
func (c *Count) Step(env *core.Env) error {
	n, err := c.In.Tokens().ReadInt64s(c.buf[:runOf(&c.Iterative)])
	if err != nil {
		return err
	}
	c.n.Add(int64(n))
	c.Done += int64(n)
	return nil
}

// N returns the number of elements consumed so far; it is safe to call
// while the process runs.
func (c *Count) N() int64 { return c.n.Load() }
