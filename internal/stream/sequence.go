package stream

import (
	"io"
	"sync"
)

// SequenceReader concatenates a queue of io.ReadCloser sources into a
// single logical stream. It is the Go analog of the paper's
// SequenceInputStream: every channel read port contains one so that a
// process can splice itself out of the graph by appending its input
// stream to its consumer's sequence (§3.3, Figure 10). All bytes are
// delivered in order; the switch from one source to the next happens only
// after the earlier source reports io.EOF, preserving FIFO semantics.
//
// A SequenceReader with an empty queue whose Append side has not been
// sealed against further sources still reports io.EOF when the current
// source ends — callers performing a splice must Append the continuation
// before closing (or before EOF becomes observable on) the spliced-out
// source. SpliceOut in package core does this in the required order.
type SequenceReader struct {
	mu      sync.Mutex
	current io.ReadCloser
	queue   []io.ReadCloser
	closed  bool
}

// NewSequenceReader returns a sequence reader beginning with first.
func NewSequenceReader(first io.ReadCloser) *SequenceReader {
	return &SequenceReader{current: first}
}

// Append adds src to the end of the sequence. Bytes from src become
// visible only after every earlier source has been fully consumed.
func (s *SequenceReader) Append(src io.ReadCloser) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		src.Close()
		return
	}
	if s.current == nil {
		s.current = src
		return
	}
	s.queue = append(s.queue, src)
}

// Read reads from the current source, advancing through the queue as
// sources are exhausted. It returns io.EOF only when the last queued
// source has ended.
func (s *SequenceReader) Read(b []byte) (int, error) {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return 0, ErrReadClosed
		}
		cur := s.current
		s.mu.Unlock()
		if cur == nil {
			return 0, io.EOF
		}
		n, err := cur.Read(b)
		if n > 0 {
			// Defer EOF handling to the next call so no bytes are lost.
			return n, nil
		}
		if err == io.EOF {
			s.mu.Lock()
			// Only advance if the source we read from is still current;
			// a concurrent Retarget may have swapped it already.
			if s.current == cur {
				cur.Close()
				if len(s.queue) > 0 {
					s.current = s.queue[0]
					s.queue = s.queue[1:]
				} else {
					s.current = nil
				}
			}
			s.mu.Unlock()
			continue
		}
		if err != nil {
			return 0, err
		}
		// A well-behaved source never returns (0, nil); guard anyway by
		// looping (the pipe's blocking read makes progress eventually).
	}
}

// Buffered reports how many bytes the current source can deliver
// without blocking, or 0 when the source does not expose that (network
// streams, spliced mid-sequence sources). Batch decoders treat 0 as
// "fall back to the blocking one-element path", so the conservative
// answer is always safe.
func (s *SequenceReader) Buffered() int {
	s.mu.Lock()
	cur := s.current
	s.mu.Unlock()
	// With further sources queued, the current source's count is still a
	// valid lower bound: those bytes are deliverable before any switch.
	if br, ok := cur.(BufferedReader); ok {
		return br.Buffered()
	}
	return 0
}

// TakeTraceMark claims the pending causal trace mark of the current
// source, or 0 when there is none (or the source is not trace-aware).
// It makes a conduit's exit — the reader an outbound link pumps —
// transparent to trace marks set on the underlying pipe.
func (s *SequenceReader) TakeTraceMark() uint64 {
	s.mu.Lock()
	cur := s.current
	s.mu.Unlock()
	if tt, ok := cur.(TraceTaker); ok {
		return tt.TakeTraceMark()
	}
	return 0
}

// ShapeHint reports the current source's advisory element-shape hint,
// or 0 when the source does not expose one. Like Buffered, it lets a
// conduit's exit stay transparent to hints stamped on the underlying
// pipe by token batch writers.
func (s *SequenceReader) ShapeHint() uint32 {
	s.mu.Lock()
	cur := s.current
	s.mu.Unlock()
	if ss, ok := cur.(ShapeSource); ok {
		return ss.ShapeHint()
	}
	return 0
}

// Retarget replaces the current source and clears the queue, closing the
// displaced sources. It is used when a channel's transport is swapped
// wholesale (local pipe replaced by a network stream during migration).
func (s *SequenceReader) Retarget(src io.ReadCloser) {
	s.mu.Lock()
	old := s.current
	oldQueue := s.queue
	s.current = src
	s.queue = nil
	closed := s.closed
	s.mu.Unlock()
	if old != nil {
		old.Close()
	}
	for _, q := range oldQueue {
		q.Close()
	}
	if closed && src != nil {
		src.Close()
	}
}

// Close closes the sequence and every remaining source. Subsequent reads
// return ErrReadClosed; subsequently appended sources are closed
// immediately (their writers observe the poison and terminate, §3.4).
func (s *SequenceReader) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	cur := s.current
	queue := s.queue
	s.current = nil
	s.queue = nil
	s.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
	for _, q := range queue {
		q.Close()
	}
	return nil
}
