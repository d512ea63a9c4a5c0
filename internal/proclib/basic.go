package proclib

import (
	"io"

	"dpn/internal/core"
	"dpn/internal/token"
)

// defaultChunk is the copy granularity for byte-oriented processes. The
// Java implementation copies one byte per step (Figure 5); copying in
// chunks preserves FIFO order per output while being far cheaper.
const defaultChunk = 1024

// runLen is the most int64 elements a run process (Scale, Modulo,
// OrderedMerge, Sequence, Collect, Count) moves in one Step. Moving one
// element per step, as the paper's processes do (§3.1, Figure 5), costs
// each 8-byte element a pipe lock pair, a codec call, a token count and
// a step-boundary check on both sides of every hop. A run process reads
// with ReadInt64s, which blocks for the first element only and then
// takes what is already buffered, and writes what it decided with one
// WriteInt64s before it can block on a read again; nothing it has taken
// is held past the Step unless it is exported state.
const runLen = 32

// runOf returns how many elements the next Step of a run process may
// move: runLen, capped at what is left of its iteration limit.
func runOf(it *core.Iterative) int {
	if left := it.Iterations - it.Done; it.Iterations > 0 && left < runLen {
		return int(left)
	}
	return runLen
}

// PassThrough copies bytes from In to Out unchanged — an identity
// process, the behaviour of Cons after its head element is delivered.
type PassThrough struct {
	core.Iterative
	In  *core.ReadPort
	Out *core.WritePort

	buf []byte
}

// Step implements core.Stepper.
func (p *PassThrough) Step(env *core.Env) error {
	if p.buf == nil {
		p.buf = make([]byte, defaultChunk)
	}
	n, err := p.In.Read(p.buf)
	if err != nil {
		return err
	}
	_, err = p.Out.Write(p.buf[:n])
	return err
}

// Duplicate copies its input stream to every output stream — the stream
// copying process of Figures 2 and 5. It is type-independent: bytes are
// copied without interpretation, so the same process duplicates int64,
// float64, or block streams.
type Duplicate struct {
	core.Iterative
	In   *core.ReadPort
	Outs []*core.WritePort
	// Chunk is the per-step copy size in bytes (default 1024). Set it
	// to the element width if an iteration limit in elements is needed.
	Chunk int

	buf []byte
}

// Step implements core.Stepper.
func (d *Duplicate) Step(env *core.Env) error {
	if d.buf == nil {
		c := d.Chunk
		if c <= 0 {
			c = defaultChunk
		}
		d.buf = make([]byte, c)
	}
	n, err := d.In.Read(d.buf)
	if err != nil {
		return err
	}
	for _, o := range d.Outs {
		if _, err := o.Write(d.buf[:n]); err != nil {
			return err
		}
	}
	return nil
}

// Cons inserts pre-encoded head elements at the front of a stream and
// then behaves as an identity process (§3.3, Figure 2). If SelfRemove is
// set, the process splices itself out of the program graph immediately
// after delivering its head — the optimization of Figure 9 — and all
// subsequent bytes flow from its input directly to its consumer with no
// copying.
type Cons struct {
	core.Iterative
	// Head holds the encoded initial element(s), e.g. one int64 from
	// token encoding. Use NewConsInt64/NewConsFloat64 for convenience.
	Head []byte
	// HeadIn, if set, is a stream whose entire contents (until end of
	// stream) are delivered ahead of In — the two-input Cons of
	// Figure 6, whose head input is fed by a Constant process with an
	// iteration limit of 1.
	HeadIn     *core.ReadPort
	In         *core.ReadPort
	Out        *core.WritePort
	SelfRemove bool
	// Primed records that the head has been delivered; it ships with a
	// migrating Cons, which does not deliver its head again.
	Primed bool

	buf []byte
}

// NewConsInt64 builds a Cons whose head is one encoded int64 element.
func NewConsInt64(head int64, in *core.ReadPort, out *core.WritePort, selfRemove bool) *Cons {
	return &Cons{Head: token.AppendInt64(nil, head), In: in, Out: out, SelfRemove: selfRemove}
}

// NewConsFloat64 builds a Cons whose head is one encoded float64
// element.
func NewConsFloat64(head float64, in *core.ReadPort, out *core.WritePort, selfRemove bool) *Cons {
	return &Cons{Head: token.AppendFloat64(nil, head), In: in, Out: out, SelfRemove: selfRemove}
}

// OnStart implements core.Starter: the head is delivered before any
// input is consumed, so cons(x, ⊥) = [x].
func (c *Cons) OnStart(env *core.Env) error {
	if c.Primed {
		return nil
	}
	if len(c.Head) > 0 {
		if _, err := c.Out.Write(c.Head); err != nil {
			return err
		}
	}
	if c.HeadIn != nil {
		if _, err := io.Copy(writerOnly{c.Out}, c.HeadIn); err != nil {
			return err
		}
		c.HeadIn.Close()
		c.HeadIn = nil
	}
	c.Primed = true
	return nil
}

// writerOnly hides WritePort's other methods so io.Copy cannot bypass
// Write via interface upgrades.
type writerOnly struct{ w *core.WritePort }

func (w writerOnly) Write(b []byte) (int, error) { return w.w.Write(b) }

// Step implements core.Stepper.
func (c *Cons) Step(env *core.Env) error {
	if c.SelfRemove {
		// Splice the input channel onto the consumer's pending input and
		// leave the graph (Figure 10). Detach the fields so the runtime
		// does not close the handed-off transport.
		err := core.SpliceOut(c.In, c.Out)
		c.In, c.Out = nil, nil
		if err != nil {
			return err
		}
		return io.EOF
	}
	if c.buf == nil {
		c.buf = make([]byte, defaultChunk)
	}
	n, err := c.In.Read(c.buf)
	if err != nil {
		return err
	}
	_, err = c.Out.Write(c.buf[:n])
	return err
}

// Discard consumes and drops its input — /dev/null for streams.
type Discard struct {
	core.Iterative
	In *core.ReadPort

	buf []byte
}

// Step implements core.Stepper.
func (d *Discard) Step(env *core.Env) error {
	if d.buf == nil {
		d.buf = make([]byte, defaultChunk)
	}
	_, err := d.In.Read(d.buf)
	return err
}

// Take copies exactly N elements of Width bytes from In to Out and then
// stops, closing both channels: a data-bounded window over an infinite
// stream. Copied counts the elements copied so far; it ships with a
// migrating Take, which does not copy its whole window again.
type Take struct {
	N      int64
	Width  int
	In     *core.ReadPort
	Out    *core.WritePort
	Copied int64

	buf []byte
}

// Step implements core.Stepper.
func (t *Take) Step(env *core.Env) error {
	if t.Copied >= t.N {
		return io.EOF
	}
	w := t.Width
	if w <= 0 {
		w = token.Int64Size
	}
	if len(t.buf) != w {
		t.buf = make([]byte, w)
	}
	if _, err := io.ReadFull(t.In, t.buf); err != nil {
		return err
	}
	if _, err := t.Out.Write(t.buf); err != nil {
		return err
	}
	t.Copied++
	return nil
}
