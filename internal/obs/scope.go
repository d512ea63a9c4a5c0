package obs

import (
	"io"
	"sync"
)

// Scope bundles the registry and tracer shared by every component of
// one node (its network, broker, monitor, and server), plus the node
// identity label injected into the exposition. All methods are nil-safe
// and return nil-safe instruments, so components can be wired
// unconditionally and pay nothing when unobserved.
type Scope struct {
	reg    *Registry
	tracer *Tracer

	mu   sync.Mutex
	node string
}

// NewScope returns a scope with a fresh registry and a disabled tracer
// of the default ring size.
func NewScope() *Scope {
	return &Scope{reg: NewRegistry(), tracer: NewTracer(0)}
}

// Registry returns the scope's metric registry (nil for a nil scope).
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Tracer returns the scope's event tracer (nil for a nil scope).
func (s *Scope) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tracer
}

// SetNode records the node identity (normally the broker address) added
// as a node="..." label to every exposed series.
func (s *Scope) SetNode(node string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.node = node
	s.mu.Unlock()
}

// Node returns the node identity label value.
func (s *Scope) Node() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node
}

// Record is a nil-safe pass-through to the scope's tracer.
func (s *Scope) Record(typ EventType, name, detail string, arg int64) {
	s.Tracer().Record(typ, name, detail, arg)
}

// WriteProm writes the scope's metrics in Prometheus text format, with
// the node label injected when set.
func (s *Scope) WriteProm(w io.Writer) error {
	if s == nil {
		return nil
	}
	if node := s.Node(); node != "" {
		return s.reg.WriteProm(w, L("node", node))
	}
	return s.reg.WriteProm(w)
}

// WriteTrace writes the scope's trace ring as Chrome trace_event JSON.
func (s *Scope) WriteTrace(w io.Writer) error {
	if s == nil {
		return NewTracer(1).WriteTrace(w)
	}
	return s.tracer.WriteTrace(w)
}
