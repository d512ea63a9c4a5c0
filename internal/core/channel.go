package core

import (
	"dpn/internal/conduit"
	"dpn/internal/stream"
)

// Channel is a first-in first-out queue connecting exactly one producing
// process to one consuming process. The byte transport is a conduit: a
// bounded in-memory buffer whose ends can be rebound to a network
// transport when the graph is distributed (see package conduit). The
// two ends are exposed as a WritePort and a ReadPort. Typed data is
// layered on top by package token, exactly as the Java implementation
// layers DataOutputStream over ChannelOutputStream (§3.1).
type Channel struct {
	name string
	cd   *conduit.Conduit
	net  *Network

	// The two port handles and their initial states live inside the
	// channel: one allocation instead of five, which is what pays for
	// the codec pointer each state carries.
	w  WritePort
	r  ReadPort
	ws wstate
	rs rstate

	// rec is the exposition record of the channel's name, whose token
	// counts package token bumps through the ports' NoteTokens hooks. Nil
	// unless the channel is registered and its name admitted.
	rec *record
	// held records the local processes holding the two ends (see
	// cut.go). Guarded by net.mu.
	held ends
}

// NewChannel creates a channel that is not registered with any network.
// It is useful for unit tests and standalone pipelines; graph programs
// normally use Network.NewChannel so the deadlock monitor can see the
// channel.
func NewChannel(name string, capacity int) *Channel {
	return newChannel(nil, name, capacity)
}

func newChannel(n *Network, name string, capacity int) *Channel {
	cd := conduit.New(name, capacity)
	ch := &Channel{name: name, cd: cd, net: n}
	ch.ws = wstate{name: name, p: cd.Buffer(), ch: ch}
	ch.rs = rstate{name: name, p: cd.Buffer(), ch: ch}
	ch.w.s, ch.r.s = &ch.ws, &ch.rs
	if n != nil {
		cd.Buffer().SetHooks(n, &stream.Instruments{Tracer: n.scope.Tracer(), Name: name})
		n.registerChannel(ch)
	}
	return ch
}

// Name returns the channel's diagnostic name.
func (c *Channel) Name() string { return c.name }

// Writer returns the producing end of the channel.
func (c *Channel) Writer() *WritePort { return &c.w }

// Reader returns the consuming end of the channel.
func (c *Channel) Reader() *ReadPort { return &c.r }

// Pipe exposes the underlying bounded buffer for capacity management and
// introspection (deadlock detection, migration).
func (c *Channel) Pipe() *stream.Pipe { return c.cd.Buffer() }

// Conduit exposes the channel's full data plane — buffer plus transport
// binding surface — for the migration machinery (package wire).
func (c *Channel) Conduit() *conduit.Conduit { return c.cd }

// Network returns the network the channel is registered with, or nil.
func (c *Channel) Network() *Network { return c.net }
