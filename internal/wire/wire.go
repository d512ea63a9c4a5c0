// Package wire serializes pieces of a process-network program graph so
// they can be shipped to other machines, re-establishing every channel
// automatically — the Go equivalent of the paper's use of Java Object
// Serialization with writeReplace/readResolve hooks on the stream
// classes (§4.2).
//
// Exporting a set of processes produces a Parcel:
//
//   - Channels connecting two exported processes travel inside the
//     parcel (including any unconsumed buffered data).
//   - Channels crossing the parcel boundary are replaced by network
//     descriptors. The origin node arranges the rendezvous (a token on
//     its broker, or an in-band redirect if the channel was already
//     remote), and the importing node reconnects — directly to whichever
//     node actually hosts the peer end, never relaying through earlier
//     hosts (§4.3).
//
// encoding/gob has no per-encoder context and no object identity, so
// ports are encoded as small IDs resolved through a core.Transfer
// session installed for the duration of the encode/decode. This is the
// central gob workaround of the Go port.
package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sync"

	"dpn/internal/conduit"
	"dpn/internal/core"
	"dpn/internal/deadlock"
	"dpn/internal/netio"
	"dpn/internal/obs"
)

func init() {
	// Composites ship as units (Figure 14 sends a CompositeProcess to a
	// remote server), so the type must be known to gob.
	gob.Register(&core.Composite{})
}

// portsOfDeep discovers ports including those held by the children of
// composite processes, which move with the composite.
func portsOfDeep(p any) []io.Closer {
	if comp, ok := p.(*core.Composite); ok {
		var out []io.Closer
		for _, child := range comp.Procs {
			out = append(out, portsOfDeep(child)...)
		}
		return out
	}
	return core.PortsOf(p)
}

// Node bundles a process network with its network broker and tracks
// which channels are carried by which transport links, so that a second
// move of a channel end can trigger the §4.3 redirection instead of a
// relay. All cross-node bindings flow through the node's conduit
// transport (mux streams over the broker's sessions; chaos suites
// install fault injection on the same broker, so the binding code path
// is identical).
type Node struct {
	Net    *core.Network
	Broker *netio.Broker

	tr conduit.Transport

	mu    sync.Mutex
	links map[*core.Channel]conduit.Link
}

// NewNode creates a node from an existing network and broker. The
// broker is re-homed into the network's observability scope so the
// whole node — channels, processes, links, migrations — shares one
// registry and tracer, and the scope's node label is set to the
// broker's listen address (the node's identity towards its peers).
func NewNode(net *core.Network, broker *netio.Broker) *Node {
	scope := net.Obs()
	scope.SetNode(broker.Addr())
	broker.SetObs(scope)
	reg := scope.Registry()
	reg.Help("dpn_wire_parcels_total", "Graph parcels processed by this node, by op (export|import).")
	reg.Help("dpn_wire_migrations_total", "Running processes migrated off this node (§6.1).")
	reg.Help("dpn_wire_link_failures_total", "Channel links that shut down with an error, by channel.")
	return &Node{
		Net:    net,
		Broker: broker,
		tr:     conduit.Mux{Broker: broker},
		links:  make(map[*core.Channel]conduit.Link),
	}
}

// Transport returns the conduit transport this node binds boundary
// channels through.
func (n *Node) Transport() conduit.Transport { return n.tr }

// SetTransport swaps the conduit transport future bindings go through
// — e.g. a conduit.Durable wrapper that journals boundary channels to
// a WAL. Existing links are unaffected; call it before Export/Import
// traffic starts.
func (n *Node) SetTransport(tr conduit.Transport) { n.tr = tr }

// Obs returns the node's unified observability scope.
func (n *Node) Obs() *obs.Scope { return n.Net.Obs() }

// TraceEvents snapshots the node's trace ring, oldest first. The
// compute-server "trace" RPC serves this to remote collectors; a
// driver merging a cluster trace pairs each node's events with its
// name and feeds the set to obs.WriteMergedTrace.
func (n *Node) TraceEvents() []obs.Event { return n.Obs().Tracer().Events() }

// noteWire counts one serialization operation and traces its phase.
func (n *Node) noteWire(op, subject string, arg int64) {
	s := n.Obs()
	switch op {
	case "migrate":
		s.Registry().Counter("dpn_wire_migrations_total").Inc()
	default:
		s.Registry().Counter("dpn_wire_parcels_total", obs.L("op", op)).Inc()
	}
	s.Record(obs.EvMigrate, subject, op, arg)
}

// NewLocalNode creates a node with a fresh network and a broker on
// listenAddr (use "127.0.0.1:0" for tests).
func NewLocalNode(listenAddr string) (*Node, error) {
	b, err := netio.NewBroker(listenAddr)
	if err != nil {
		return nil, err
	}
	return NewNode(core.NewNetwork(), b), nil
}

// Close shuts down the node's broker.
func (n *Node) Close() error { return n.Broker.Close() }

// trackLink records l as the live link carrying ch and watches it. If
// the link re-arms itself (the §4.3 redirect path replaces the serving
// handle with a fresh one for the writer's next hop), the replacement
// is re-tracked through the same path, so a third move of the channel
// never consults a finished link.
func (n *Node) trackLink(ch *core.Channel, l conduit.Link) {
	l.OnRearm(func(nl conduit.Link) { n.trackLink(ch, nl) })
	n.mu.Lock()
	n.links[ch] = l
	n.mu.Unlock()
	go n.watchLink(ch, l)
}

// watchLink waits for a tracked link to shut down and reports it. A
// link that ends with an error has exhausted its retry policy (under
// the zero policy, hit any network fault): the local channel end has
// been poisoned and the graph degrades through the §3.4 cascading close.
// The counter and the traced event are how an operator distinguishes
// "graph finished" from "graph degraded". The map entry is dropped
// either way, so a dead handle is never offered a Move or Redirect.
// Local broker shutdown cancels pending rendezvous (finishing their
// links with conduit.ErrBrokerClosed), which terminates these watchers
// instead of leaking them; that case is traced but not counted as a
// failure, since nothing degraded on the wire.
func (n *Node) watchLink(ch *core.Channel, l conduit.Link) {
	err := l.Wait()
	n.forgetLink(ch, l)
	if err != nil {
		s := n.Obs()
		if errors.Is(err, conduit.ErrBrokerClosed) {
			s.Record(obs.EvLink, ch.Name(), "shutdown", 0)
			return
		}
		s.Registry().Counter("dpn_wire_link_failures_total", obs.L("channel", ch.Name())).Inc()
		s.Record(obs.EvLink, ch.Name(), "fail", 0)
	}
}

// forgetLink drops l as the link carrying ch, unless a replacement has
// already been tracked.
func (n *Node) forgetLink(ch *core.Channel, l conduit.Link) {
	n.mu.Lock()
	if n.links[ch] == l {
		delete(n.links, ch)
	}
	n.mu.Unlock()
}

func (n *Node) linkFor(ch *core.Channel) conduit.Link {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.links[ch]
}

// PortDescriptor tells the importing node how to reconnect one boundary
// channel end.
type PortDescriptor struct {
	ID       uint32 // transfer-session port ID referenced from the blob
	Side     string // "reader" or "writer" — the side inside the parcel
	Mode     string // "dial" (connect to Addr) or "serve" (peer dials us)
	Addr     string // broker address to dial, for Mode "dial"
	Token    string // rendezvous token
	Name     string // channel name (diagnostics)
	Capacity int    // channel buffer capacity to recreate
	Leftover []byte // unconsumed bytes that travel with a moving reader
}

// ChannelDescriptor recreates a channel internal to the parcel.
type ChannelDescriptor struct {
	ReadID   uint32
	WriteID  uint32
	Name     string
	Capacity int
	Buffered []byte // unconsumed data preserved across the move (§3.3)
}

// Parcel is a serialized piece of a program graph.
type Parcel struct {
	Blob     []byte // gob of the process values, ports encoded as IDs
	Boundary []PortDescriptor
	Internal []ChannelDescriptor
}

// Export serializes procs (each a Process or Stepper, with exported
// port fields) for shipment to the node whose broker listens at
// destAddr. The processes must not be executing during the export:
// either they have not been spawned yet (the paper's usage — graphs are
// distributed before execution begins) or they have been suspended and
// ejected at a step boundary (Migrate, the §6.1 future work this port
// implements). Processes connected to the exported ones may keep
// running throughout: their channel ends stay put, and data they
// produce or consume concurrently flows through the re-established
// links.
//
// After Export returns, the exported processes' ports are detached on
// this node — the graph piece now lives in the parcel.
func Export(n *Node, destAddr string, procs ...any) (*Parcel, error) {
	type side struct {
		reader *core.ReadPort
		writer *core.WritePort
	}
	chans := make(map[*core.Channel]*side)
	order := []*core.Channel{}
	for _, p := range procs {
		for _, c := range portsOfDeep(p) {
			switch port := c.(type) {
			case *core.ReadPort:
				ch := port.Channel()
				if ch == nil {
					return nil, fmt.Errorf("wire: process %T holds a detached read port", p)
				}
				if chans[ch] == nil {
					chans[ch] = &side{}
					order = append(order, ch)
				}
				if chans[ch].reader != nil && chans[ch].reader != port {
					return nil, fmt.Errorf("wire: channel %s has two readers", ch.Name())
				}
				chans[ch].reader = port
			case *core.WritePort:
				ch := port.Channel()
				if ch == nil {
					return nil, fmt.Errorf("wire: process %T holds a detached write port", p)
				}
				if chans[ch] == nil {
					chans[ch] = &side{}
					order = append(order, ch)
				}
				if chans[ch].writer != nil && chans[ch].writer != port {
					return nil, fmt.Errorf("wire: channel %s has two writers", ch.Name())
				}
				chans[ch].writer = port
			default:
				return nil, fmt.Errorf("wire: process %T reports an unknown port type %T", p, c)
			}
		}
	}

	t := core.NewTransfer()
	parcel := &Parcel{}
	for _, ch := range order {
		s := chans[ch]
		switch {
		case s.reader != nil && s.writer != nil:
			// Internal channel: both ends move; carry the buffer along.
			cd := ChannelDescriptor{
				ReadID:   t.RegisterRead(s.reader),
				WriteID:  t.RegisterWrite(s.writer),
				Name:     ch.Name(),
				Capacity: ch.Pipe().Cap(),
				Buffered: ch.Pipe().Drain(),
			}
			// Both ends now live in the parcel; close the emptied local
			// buffer so the network can let the channel go.
			if src := s.reader.Detach(); src != nil {
				src.CloseRead()
			}
			if sink := s.writer.Detach(); sink != nil {
				sink.CloseWrite()
			}
			parcel.Internal = append(parcel.Internal, cd)

		case s.reader != nil:
			// The consuming end moves.
			pd, err := exportReader(n, t, ch, s.reader, destAddr)
			if err != nil {
				return nil, err
			}
			parcel.Boundary = append(parcel.Boundary, pd)

		case s.writer != nil:
			// The producing end moves.
			pd, err := exportWriter(n, t, ch, s.writer)
			if err != nil {
				return nil, err
			}
			parcel.Boundary = append(parcel.Boundary, pd)
		}
	}

	var buf bytes.Buffer
	err := core.WithTransfer(t, func() error {
		return gob.NewEncoder(&buf).Encode(&procs)
	})
	if err != nil {
		return nil, fmt.Errorf("wire: encoding processes: %w", err)
	}
	parcel.Blob = buf.Bytes()
	n.noteWire("export", destAddr, int64(len(parcel.Blob)))
	return parcel, nil
}

// exportReader handles a moving consuming end. If the channel is fully
// local, the origin keeps the producing side and rebinds the conduit's
// sink to the transport (the destination dials us and drains the
// buffer); if the channel was itself fed over the network (its writer
// moved away earlier), the live inbound binding is rebound instead: the
// writer host is told to fence and reconnect directly to the reader's
// new home, and the bytes delivered before the fence travel inside the
// parcel (drain → rebind → resume at offset). An inbound binding whose
// stream has already ended — the writer's EOF was delivered and
// confirmed before the move — has left a local channel with a closed
// producing side behind, and is exported as one.
func exportReader(n *Node, t *core.Transfer, ch *core.Channel, r *core.ReadPort, destAddr string) (PortDescriptor, error) {
	pd := PortDescriptor{
		ID:       t.RegisterRead(r),
		Side:     "reader",
		Name:     ch.Name(),
		Capacity: ch.Pipe().Cap(),
	}
	for l := n.linkFor(ch); l != nil && !l.Outbound(); l = n.linkFor(ch) {
		// Case: reader moving while its writer is already remote. Tell
		// the writer host to rebind directly to the destination.
		token := n.Broker.NewToken()
		if err := l.Move(destAddr, token); err != nil {
			if errors.Is(err, conduit.ErrNotConnected) && linkDone(l) {
				// The stream ended under us (or the link re-armed for a
				// redirected writer): forget the finished link and look again.
				n.forgetLink(ch, l)
				continue
			}
			return pd, fmt.Errorf("wire: moving reader of %s: %w", ch.Name(), err)
		}
		// Everything delivered before the fence sits in the conduit;
		// seal it and let the drained bytes travel with the parcel.
		r.Detach()
		leftover, err := ch.Conduit().SealAndDrain()
		if err != nil {
			return pd, err
		}
		pd.Mode = "serve"
		pd.Token = token
		pd.Leftover = leftover
		return pd, nil
	}
	// Fully local channel: the producing side stays; rebind the
	// conduit's sink outward. The detach hands the exit to the conduit's
	// new binding, and the channel capacity becomes the credit window.
	token := n.Broker.NewToken()
	r.Detach()
	l, err := ch.Conduit().BindSink(n.tr, conduit.Endpoint{Token: token}, ch.Pipe().Cap())
	if err != nil {
		return pd, err
	}
	n.trackLink(ch, l)
	pd.Mode = "dial"
	pd.Addr = n.Broker.Addr()
	pd.Token = token
	return pd, nil
}

func linkDone(l conduit.Link) bool {
	select {
	case <-l.Done():
		return true
	default:
		return false
	}
}

// exportWriter handles a moving producing end. If the channel is fully
// local, the origin keeps the consuming side and rebinds the conduit's
// source to the transport (the destination dials us and feeds the
// buffer); if the producing end was already remote-bound (it moved
// here earlier or its reader moved away), the §4.3 REDIRECT is the
// second rebind: the reader host re-arms for the destination, which
// connects straight to it.
func exportWriter(n *Node, t *core.Transfer, ch *core.Channel, w *core.WritePort) (PortDescriptor, error) {
	pd := PortDescriptor{
		ID:       t.RegisterWrite(w),
		Side:     "writer",
		Name:     ch.Name(),
		Capacity: ch.Pipe().Cap(),
	}
	if l := n.linkFor(ch); l != nil && l.Outbound() {
		// Case: writer moving while its reader is already remote (the
		// Figure 15 second hop). Announce the redirect, drain, and step
		// out of the path.
		token := n.Broker.NewToken()
		peer, err := l.Redirect(token)
		if err != nil {
			return pd, fmt.Errorf("wire: redirecting writer of %s: %w", ch.Name(), err)
		}
		if sink := w.Detach(); sink != nil {
			sink.CloseWrite() // lets the outbound link drain to the redirect frame
		}
		if err := l.Wait(); err != nil {
			return pd, err
		}
		pd.Mode = "dial"
		pd.Addr = peer
		pd.Token = token
		return pd, nil
	}
	// Fully local channel: the consuming side stays; rebind the
	// conduit's source inward.
	token := n.Broker.NewToken()
	w.Detach()
	l, err := ch.Conduit().BindSource(n.tr, conduit.Endpoint{Token: token})
	if err != nil {
		return pd, err
	}
	n.trackLink(ch, l)
	pd.Mode = "dial"
	pd.Addr = n.Broker.Addr()
	pd.Token = token
	return pd, nil
}

// Import reconstructs the processes of a parcel on this node,
// recreating internal channels and reconnecting boundary channels over
// the network. The returned processes are ready to spawn on n.Net.
func Import(n *Node, parcel *Parcel) ([]any, error) {
	t := core.NewTransfer()
	for _, cd := range parcel.Internal {
		ch := n.Net.NewChannel(cd.Name, max(cd.Capacity, len(cd.Buffered)))
		if err := ch.Conduit().Restore(cd.Buffered); err != nil {
			return nil, fmt.Errorf("wire: restoring buffer of %s: %w", cd.Name, err)
		}
		t.ProvideRead(cd.ReadID, ch.Reader())
		t.ProvideWrite(cd.WriteID, ch.Writer())
	}
	for _, pd := range parcel.Boundary {
		switch pd.Side {
		case "reader":
			// The moved reader resumes at its drained offset: leftovers
			// are restored into the conduit first, then the source is
			// rebound to the transport so post-fence bytes follow.
			ch := n.Net.NewChannel(pd.Name, max(pd.Capacity, len(pd.Leftover)))
			if err := ch.Conduit().Restore(pd.Leftover); err != nil {
				return nil, fmt.Errorf("wire: restoring leftover of %s: %w", pd.Name, err)
			}
			t.ProvideRead(pd.ID, ch.Reader())
			ep := conduit.Endpoint{Token: pd.Token}
			if pd.Mode == "dial" {
				ep.Addr = pd.Addr
			}
			l, err := ch.Conduit().BindSource(n.tr, ep)
			if err != nil {
				return nil, fmt.Errorf("wire: reconnecting reader %s: %w", pd.Name, err)
			}
			n.trackLink(ch, l)
		case "writer":
			ch := n.Net.NewChannel(pd.Name, pd.Capacity)
			t.ProvideWrite(pd.ID, ch.Writer())
			ch.Reader().Detach()
			if pd.Mode != "dial" {
				return nil, fmt.Errorf("wire: writer descriptor %s must dial", pd.Name)
			}
			ep := conduit.Endpoint{Addr: pd.Addr, Token: pd.Token}
			l, err := ch.Conduit().BindSink(n.tr, ep, pd.Capacity)
			if err != nil {
				return nil, fmt.Errorf("wire: reconnecting writer %s: %w", pd.Name, err)
			}
			n.trackLink(ch, l)
		default:
			return nil, fmt.Errorf("wire: unknown descriptor side %q", pd.Side)
		}
	}

	var procs []any
	err := core.WithTransfer(t, func() error {
		return gob.NewDecoder(bytes.NewReader(parcel.Blob)).Decode(&procs)
	})
	if err != nil {
		return nil, fmt.Errorf("wire: decoding processes: %w", err)
	}
	n.noteWire("import", n.Broker.Addr(), int64(len(parcel.Blob)))
	return procs, nil
}

// SpawnImported imports a parcel and spawns every process it contains.
func SpawnImported(n *Node, parcel *Parcel) ([]*core.Proc, error) {
	procs, err := Import(n, parcel)
	if err != nil {
		return nil, err
	}
	out := make([]*core.Proc, 0, len(procs))
	for _, p := range procs {
		out = append(out, n.Net.Spawn(p))
	}
	return out, nil
}

// Migrate implements the paper's §6.1 future work — moving a process
// *after execution has begun*: the process is suspended at its next
// step boundary, ejected from its goroutine with every port left open,
// and exported for the node at destAddr. Unconsumed data buffered in
// its channels flows through the re-established network links (or
// travels inside the parcel for channels internal to the move), so the
// streams the graph computes are unchanged — determinacy holds across
// the migration.
//
// The caller ships the returned parcel (server.Client.RunParcel) and
// the destination spawns it; the process resumes from its exported
// state. Only exported fields survive the move, exactly as
// non-transient fields do under Java serialization.
func Migrate(n *Node, destAddr string, proc *core.Proc) (*Parcel, error) {
	if err := proc.Suspend(); err != nil {
		return nil, err
	}
	body, err := proc.Eject()
	if err != nil {
		return nil, err
	}
	parcel, err := Export(n, destAddr, body)
	if err == nil {
		n.noteWire("migrate", proc.Name(), 0)
	}
	return parcel, err
}

// DeadlockStatus implements deadlock.Peer: a snapshot of this node's
// scheduling state for a deadlock monitor on another node (§6.2).
func (n *Node) DeadlockStatus() (deadlock.NodeStatus, error) {
	st := deadlock.Survey(n.Net)
	st.BytesIn, st.BytesOut = n.Broker.BytesIn(), n.Broker.BytesOut()
	return st, nil
}

// GrowChannel implements deadlock.Peer: grow the named channel's
// buffer, waking blocked writers.
func (n *Node) GrowChannel(name string, newCap int) (int, error) {
	for _, ch := range n.Net.Channels() {
		if ch.Name() == name {
			return ch.Pipe().Grow(newCap), nil
		}
	}
	return 0, fmt.Errorf("wire: no channel named %q", name)
}
