// Package core implements the Kahn-process-network runtime: channels
// (FIFO byte queues with blocking reads and writes), processes (one
// goroutine each), composite processes, a network execution context, and
// graph reconfiguration primitives. It is the Go port of the runtime
// described in "Distributed Process Networks in Java" (Parks, Roberts,
// Millman; IPPS 2003).
package core

import (
	"fmt"

	"dpn/internal/conduit"
	"dpn/internal/stream"
	"dpn/internal/token"
)

// ErrDetached is returned by operations on a port whose transport has
// been handed to another process or to the migration machinery. It is
// an alias of the sentinel in the conduit layer's consolidated
// catalogue (internal/conduit/errs.go).
var ErrDetached = conduit.ErrDetached

// rstate is the shared state behind one or more *ReadPort handles. Ports
// are a single pointer to their state so that gob decoding can rebind a
// freshly allocated port to reconstructed state without copying locks.
//
// The state is also the byte source the port's token codec reads (it
// implements io.Reader plus the Buffered/NoteTokens hooks package token
// looks for), so the codec belongs to the binding, not to a handle:
// every operation that rebinds a port — Detach, SpliceOut,
// InsertUpstream, gob decode, migration — installs fresh state and the
// old codec goes with the old state.
type rstate struct {
	name string        // the channel's name when ch is set, the port's otherwise
	p    *stream.Pipe  // nil once detached
	ch   *Channel      // nil when the port is not attached to a local channel
	tok  *token.Reader // built by Tokens on first use; scratch only
}

func (s *rstate) Read(b []byte) (int, error) {
	if s.p == nil {
		return 0, ErrDetached
	}
	return s.p.Read(b)
}

func (s *rstate) Buffered() int {
	if s.p == nil {
		return 0
	}
	return s.p.Buffered()
}

func (s *rstate) NoteTokens(k int) {
	if s.ch != nil && s.ch.rec != nil {
		s.ch.rec.tokens[0].Add(int64(k))
	}
}

// ReadPort is the consuming end of a channel. It corresponds to the
// paper's ChannelInputStream: reads block until data is available, and
// the channel's pipe takes a spliced continuation so that upstream
// processes can splice themselves out of the graph without losing data
// (§3.3).
type ReadPort struct {
	s *rstate
}

// Read fills b with at least one byte, blocking as required by Kahn
// semantics. It returns io.EOF after the producing side has closed and
// all data has drained.
func (p *ReadPort) Read(b []byte) (int, error) {
	if p.s == nil {
		return 0, ErrDetached
	}
	return p.s.Read(b)
}

// Tokens returns the port's typed-element decoder — the
// DataInputStream a Java process wraps around its channel stream once
// and keeps (§3.1). There is exactly one per binding, built on first
// use and dropped when the port is rebound, so a Step calls Tokens
// every time it reads instead of caching the result. The decoder holds
// no element bytes between calls: typed reads may be mixed freely with
// raw Read of whole elements, and the stream can be cut at any element
// boundary (Detach, migration) without consulting it.
func (p *ReadPort) Tokens() *token.Reader {
	if p.s == nil {
		p.s = &rstate{name: "<detached>"}
	}
	if p.s.tok == nil {
		p.s.tok = token.NewReader(p.s)
	}
	return p.s.tok
}

// Close closes the consuming end. The producing process observes
// stream.ErrReadClosed on its next write, propagating termination
// upstream (§3.4).
//
// Closing the port of a channel registered with a network also runs the
// cut from it (see cut.go): a writer whose every output has lost its
// consumer stops at once instead of on its next write.
func (p *ReadPort) Close() error {
	if p.s == nil || p.s.p == nil {
		return nil
	}
	err := p.s.p.CloseRead()
	if ch := p.s.ch; ch != nil && ch.net != nil {
		ch.net.consumerClosed(ch)
	}
	return err
}

// Channel returns the local channel this port belongs to, or nil if the
// port is detached or fed by a remote transport.
func (p *ReadPort) Channel() *Channel {
	if p.s == nil {
		return nil
	}
	return p.s.ch
}

// Name returns the diagnostic port name.
func (p *ReadPort) Name() string {
	switch {
	case p.s == nil:
		return "<detached>"
	case p.s.ch != nil:
		return p.s.name + ".r"
	}
	return p.s.name
}

// Detach removes and returns the pipe the port reads; the caller owns
// its read end from now on. Subsequent reads fail with ErrDetached and
// Close becomes a no-op, so a terminating process cannot poison a
// stream it has handed to its consumer. Detach is the first half of a
// splice-out (Figure 10 of the paper).
func (p *ReadPort) Detach() *stream.Pipe {
	if p.s == nil {
		return nil
	}
	if ch := p.s.ch; ch != nil && ch.net != nil {
		ch.net.forget(ch, false)
	}
	src := p.s.p
	p.s = &rstate{name: p.Name() + "<detached>"}
	return src
}

// Buffered reports how many bytes are immediately readable without
// blocking (0 when the transport cannot tell). Batch decoders in
// package token use it to size non-blocking drains.
func (p *ReadPort) Buffered() int {
	if p.s == nil {
		return 0
	}
	return p.s.Buffered()
}

// NoteTokens records k typed elements consumed through this port in
// one counter operation; it feeds the dpn_conduit_tokens_total counter.
// Package token calls it after each successfully decoded element or
// batch.
func (p *ReadPort) NoteTokens(k int) {
	if p.s != nil {
		p.s.NoteTokens(k)
	}
}

func (p *ReadPort) String() string { return fmt.Sprintf("ReadPort(%s)", p.Name()) }

// wstate is the shared state behind a *WritePort handle and, like
// rstate, the sink its token codec writes.
type wstate struct {
	name string       // the channel's name when ch is set, the port's otherwise
	p    *stream.Pipe // nil once detached
	ch   *Channel
	tok  *token.Writer // built by Tokens on first use; scratch only
}

func (s *wstate) Write(b []byte) (int, error) {
	if s.p == nil {
		return 0, ErrDetached
	}
	return s.p.Write(b)
}

func (s *wstate) WriteVec(bufs ...[]byte) (int, error) {
	if s.p == nil {
		return 0, ErrDetached
	}
	return s.p.WriteVec(bufs...)
}

func (s *wstate) HintShape(shape uint32) {
	if s.p != nil {
		s.p.HintShape(shape)
	}
}

func (s *wstate) NoteTokens(k int) {
	if s.ch != nil && s.ch.rec != nil {
		s.ch.rec.tokens[1].Add(int64(k))
	}
}

// WritePort is the producing end of a channel, corresponding to the
// paper's ChannelOutputStream. Writes block while the channel buffer is
// full (§3.5: bounded channels give fair scheduling).
type WritePort struct {
	s *wstate
}

// Write appends b to the channel, blocking while the buffer is full.
// After the consuming end closes, Write fails with stream.ErrReadClosed.
func (p *WritePort) Write(b []byte) (int, error) {
	if p.s == nil {
		return 0, ErrDetached
	}
	return p.s.Write(b)
}

// Tokens returns the port's typed-element encoder, the counterpart of
// ReadPort.Tokens: one per binding, built on first use, dropped when
// the port is rebound. Every element is in the channel before its
// Write call returns; the encoder never writes behind.
func (p *WritePort) Tokens() *token.Writer {
	if p.s == nil {
		p.s = &wstate{name: "<detached>"}
	}
	if p.s.tok == nil {
		p.s.tok = token.NewWriter(p.s)
	}
	return p.s.tok
}

// WriteVec appends a multi-part element to the channel as one
// operation (see stream.Pipe.WriteVec): one lock round trip and at most
// one consumer wakeup.
func (p *WritePort) WriteVec(bufs ...[]byte) (int, error) {
	if p.s == nil {
		return 0, ErrDetached
	}
	return p.s.WriteVec(bufs...)
}

// Close closes the producing end. The consumer drains buffered data and
// then observes io.EOF.
func (p *WritePort) Close() error {
	if p.s == nil || p.s.p == nil {
		return nil
	}
	return p.s.p.CloseWrite()
}

// Channel returns the local channel this port belongs to, or nil.
func (p *WritePort) Channel() *Channel {
	if p.s == nil {
		return nil
	}
	return p.s.ch
}

// Name returns the diagnostic port name.
func (p *WritePort) Name() string {
	switch {
	case p.s == nil:
		return "<detached>"
	case p.s.ch != nil:
		return p.s.name + ".w"
	}
	return p.s.name
}

// Detach removes and returns the pipe the port writes; the caller owns
// its write end from now on. Subsequent writes fail with ErrDetached and
// Close becomes a no-op.
func (p *WritePort) Detach() *stream.Pipe {
	if p.s == nil {
		return nil
	}
	if ch := p.s.ch; ch != nil && ch.net != nil {
		ch.net.forget(ch, true)
	}
	dst := p.s.p
	p.s = &wstate{name: p.Name() + "<detached>"}
	return dst
}

// HintShape forwards an advisory element-shape hint (token/blocks
// Shape values) toward the channel's sink, where a transport binding
// may use it to pick a compression trial. Detached ports drop the hint
// — it carries no correctness weight.
func (p *WritePort) HintShape(s uint32) {
	if p.s != nil {
		p.s.HintShape(s)
	}
}

// NoteTokens records k typed elements produced through this port in
// one counter operation; it feeds the dpn_conduit_tokens_total counter.
func (p *WritePort) NoteTokens(k int) {
	if p.s != nil {
		p.s.NoteTokens(k)
	}
}

func (p *WritePort) String() string { return fmt.Sprintf("WritePort(%s)", p.Name()) }

// IsTermination reports whether err is one of the benign stream-shutdown
// conditions that terminate a process normally, mirroring the Java
// implementation's treatment of IOException in IterativeProcess.run
// (Figure 4 of the paper): end of input, poisoned output, or a channel
// torn down mid-element during cascade shutdown. The catalogue lives at
// the conduit layer; this is conduit.IsBenignClose under its historic
// name.
func IsTermination(err error) bool { return conduit.IsBenignClose(err) }
