// Package conduit is the unified channel data plane of the
// process-network runtime. A Conduit layers one logical FIFO out of two
// separable planes:
//
//   - a buffer core: the bounded in-memory pipe (stream.Pipe), which
//     the channel's ports write and read directly and whose read end
//     takes a spliced continuation, giving blocking Kahn semantics,
//     capacity growth, and the §3.4 close cascade;
//   - an optional Transport binding: when one end of the channel lives
//     on another node, the conduit's entry or exit is bound to a Link
//     that carries the bytes (mux streams via the netio broker,
//     loopback for tests). The in-proc zero-copy case
//     is simply the unbound conduit — no Transport object exists, and
//     reads and writes touch the buffer directly.
//
// Migration is a transport *rebind* on a live endpoint, not a splice:
// drain the buffered bytes (SealAndDrain), move them with the parcel,
// and bind the endpoint to a new Link (BindSource/BindSink) — the
// paper's decentralized redirection (§4.3) is a second rebind over the
// same surface. Close-cascade and credit accounting are defined once at
// this layer. The conduit keeps its counts where they happen (the
// buffer's in the pipe, its rebinds here) and exposes no series: the
// network that registers a channel reads them at scrape.
package conduit

import (
	"io"
	"sync/atomic"

	"dpn/internal/stream"
)

// Conduit is one logical channel FIFO: a bounded buffer plus the
// bookkeeping to bind either end to a Transport. The hot path is
// untouched by the abstraction — the channel's ports write and read
// the buffer itself, so an unbound (in-proc) conduit costs exactly what
// the bare pipe costs.
type Conduit struct {
	name    string
	buf     *stream.Pipe
	rebinds [2]atomic.Int64 // by dir: [0] source, [1] sink
}

// New creates an unbound conduit with the given buffer capacity.
func New(name string, capacity int) *Conduit {
	return &Conduit{name: name, buf: stream.NewPipe(capacity)}
}

// Name returns the conduit's diagnostic name.
func (c *Conduit) Name() string { return c.name }

// Buffer exposes the bounded buffer core for capacity management and
// introspection (deadlock detection, migration).
func (c *Conduit) Buffer() *stream.Pipe { return c.buf }

// Entry is the conduit's producing endpoint: the buffer's write end,
// which the channel's WritePort writes too.
func (c *Conduit) Entry() io.WriteCloser { return c.buf.WriteEnd() }

// Exit is the conduit's consuming endpoint: the buffer's read end,
// which the channel's ReadPort reads too, continuation included.
func (c *Conduit) Exit() io.ReadCloser { return c.buf.ReadEnd() }

// Rebinds returns the transport rebinds begun on the conduit, by dir:
// [0] source (BindSource), [1] sink (BindSink). Migrations, redirects
// and import-side reconnects count one each. A rebind counts before its
// link starts, so it is in before the link can settle the buffer.
func (c *Conduit) Rebinds() [2]int64 {
	return [2]int64{c.rebinds[0].Load(), c.rebinds[1].Load()}
}

// BindSource binds the conduit's producing end to a transport: bytes
// the remote writer sends flow into the buffer, and the local exit
// keeps serving reads unchanged. This is the rebind a node performs
// when a channel's writer moves away (the reader stays), and again on
// the import side when a moved reader's upstream is remote. The link
// writing into the buffer is not a process: when it parks on a full
// buffer, the deadlock monitor does not count it blocked. The side is
// marked before the link starts, so not even its first park is counted.
func (c *Conduit) BindSource(t Transport, ep Endpoint) (Link, error) {
	c.rebinds[0].Add(1)
	c.buf.Link(true)
	return t.BindInbound(ep, c.buf.WriteEnd())
}

// BindSink binds the conduit's consuming end to a transport: the exit
// — including everything currently buffered — drains outward to the
// remote reader. The caller must detach the local ReadPort first; the
// conduit's exit becomes the transport's source. window bounds the
// bytes in flight (the channel's capacity keeps the end-to-end bound).
// Like BindSource's, the link reading the buffer is not counted blocked
// when it parks on an empty one.
func (c *Conduit) BindSink(t Transport, ep Endpoint, window int) (Link, error) {
	c.rebinds[1].Add(1)
	c.buf.Link(false)
	return t.BindOutbound(ep, c.buf.ReadEnd(), window)
}

// SealAndDrain closes the buffer's write side and drains every byte
// still reachable through the exit (buffer contents, then its spliced
// continuation). It is the first half of a live-endpoint rebind: the
// drained bytes travel inside the migration parcel and are restored
// into the destination conduit, after which the stream resumes at that
// offset on the new binding. The local process must be suspended or
// detached; reads here race with nothing.
func (c *Conduit) SealAndDrain() ([]byte, error) {
	c.buf.CloseWrite()
	b, err := io.ReadAll(c.buf.ReadEnd())
	if err != nil && !IsBenignClose(err) {
		return b, err
	}
	return b, nil
}

// Restore writes previously drained bytes into the buffer — the
// destination half of SealAndDrain. The caller sizes the conduit's
// capacity to hold them (Import does), so Restore never blocks.
func (c *Conduit) Restore(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	_, err := c.buf.Write(b)
	return err
}
