package stream

import (
	"io"
	"sync"
)

// SwitchWriter is a retargetable io.WriteCloser: the underlying sink can
// be swapped while the stream is in use, with every byte delivered in
// order to exactly one sink. It is the Go analog of the paper's
// SequenceOutputStream, used when the transport under a channel changes
// (for example when the consuming process migrates to another machine and
// a local pipe must be replaced by a network stream).
type SwitchWriter struct {
	mu     sync.Mutex
	w      io.WriteCloser
	closed bool
}

// NewSwitchWriter returns a switch writer targeting w.
func NewSwitchWriter(w io.WriteCloser) *SwitchWriter {
	return &SwitchWriter{w: w}
}

// Write forwards to the current sink. The sink is held stable for the
// duration of the call: a concurrent Retarget takes effect on the next
// write, so no byte is ever split across sinks.
func (s *SwitchWriter) Write(b []byte) (int, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrWriteClosed
	}
	w := s.w
	s.mu.Unlock()
	if w == nil {
		return 0, ErrWriteClosed
	}
	return w.Write(b)
}

// WriteVec forwards a multi-part element to the current sink. When the
// sink implements VecWriter (the local pipe does) the parts land under
// one sink operation; otherwise they are written sequentially to the
// same sink — the sink is resolved once, so a concurrent Retarget can
// never split an element across transports.
func (s *SwitchWriter) WriteVec(bufs ...[]byte) (int, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrWriteClosed
	}
	w := s.w
	s.mu.Unlock()
	if w == nil {
		return 0, ErrWriteClosed
	}
	if vw, ok := w.(VecWriter); ok {
		return vw.WriteVec(bufs...)
	}
	// Non-vectored sink: join the parts so the element still reaches the
	// sink as a single operation (a mid-element failure must never leave
	// a torn element on a network transport). This path only runs for
	// multi-part elements on a migrated (non-pipe) transport.
	joined := 0
	for _, b := range bufs {
		joined += len(b)
	}
	tmp := make([]byte, 0, joined)
	for _, b := range bufs {
		tmp = append(tmp, b...)
	}
	return w.Write(tmp)
}

// HintShape forwards an advisory element-shape hint to the current
// sink when it carries one (the local pipe does). The sink is resolved
// under the same lock as Write, so a hint never lands on a sink the
// stamping writer has already been switched away from.
func (s *SwitchWriter) HintShape(shape uint32) {
	s.mu.Lock()
	w := s.w
	s.mu.Unlock()
	if sh, ok := w.(ShapeHinter); ok {
		sh.HintShape(shape)
	}
}

// Retarget swaps the sink. The previous sink is returned (not closed):
// the migration machinery usually still needs it, for example to pump
// residual pipe contents to the network.
func (s *SwitchWriter) Retarget(w io.WriteCloser) io.WriteCloser {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.w
	s.w = w
	return old
}

// Close closes the switch writer and the current sink.
func (s *SwitchWriter) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	w := s.w
	s.w = nil
	s.mu.Unlock()
	if w != nil {
		return w.Close()
	}
	return nil
}
