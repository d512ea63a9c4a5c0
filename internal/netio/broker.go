package netio

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dpn/internal/faults"
	"dpn/internal/obs"
)

// ErrBrokerClosed is returned by rendezvous operations on a broker that
// has been shut down. Links whose rendezvous was still pending when the
// broker closed finish with this error, so their watchers terminate
// instead of waiting forever. Part of the consolidated sentinel set in
// internal/conduit/errs.go.
var ErrBrokerClosed = errors.New("netio: broker closed")

// ErrRendezvousTimeout is returned when the peer of a channel link never
// presented its token within the rendezvous window. Part of the
// consolidated sentinel set in internal/conduit/errs.go.
var ErrRendezvousTimeout = errors.New("netio: rendezvous timed out")

// ErrTokenInUse is returned when a rendezvous token is registered while
// an earlier registration for the same token is still pending — a
// wiring bug (two channel ends claiming one token), never a transient
// condition. Part of the consolidated sentinel set in
// internal/conduit/errs.go.
var ErrTokenInUse = errors.New("netio: rendezvous token already registered")

// waiter is one registered rendezvous: fire receives the matched
// connection, under the broker's lock, so it must not block — and a
// registration withdrawn under that lock never fires late; cancel is
// invoked instead if the broker shuts down before the peer arrives.
type waiter struct {
	fire   func(conn *muxStream, peerAddr string)
	cancel func(error)
}

// Broker is a node's single network endpoint. Its listener accepts one
// authenticated session per peer; every channel link of every
// distributed graph hosted by the node is a stream of such a session,
// matched to its waiting channel end by rendezvous token (the Go
// analog of the automatic connection establishment of §4.2: where Java
// Object Serialization hooks create a listening socket per stream, the
// broker carries every rendezvous through one address and one socket
// per peer pair).
type Broker struct {
	ln   net.Listener
	addr string

	mu         sync.Mutex
	waiting    map[string]waiter
	pending    map[string]pendingConn
	pendingTTL time.Duration
	closed     bool
	// closedCh is closed by Close so long sleeps (reconnect backoff)
	// can select against shutdown instead of discovering it on their
	// next dial attempt.
	closedCh chan struct{}

	// ins is the active observability bundle; swapped whole by SetObs
	// so the per-byte hot path is one atomic load.
	ins atomic.Pointer[brokerInstruments]

	// flt is the active fault injector (nil injector = no faults); res
	// is the retry policy (never nil; the zero policy until
	// SetResilience). Both are swapped whole and read per connection.
	flt atomic.Pointer[faults.Injector]
	res atomic.Pointer[Resilience]

	// smp is the causal-trace auto-sampler (nil = no auto-sampling);
	// outbound links consult it per DATA frame.
	smp atomic.Pointer[obs.Sampler]

	// cmpOff disables wire compression for links created after the
	// store. Stored inverted so the zero-value broker compresses —
	// compression is a transparent payload property, not a protocol
	// change, so it needs no fleet-wide agreement (every inbound side
	// always accepts both DATA kinds).
	cmpOff atomic.Bool

	// psk is the cluster pre-shared key of the session handshake (empty:
	// any peer speaking the protocol); the pool below keys live sessions
	// by peer broker address. See muxpool.go.
	psk             atomic.Pointer[[]byte]
	muxMu           sync.Mutex
	muxSess         map[string]*muxEntry
	muxAll          map[*session]struct{}
	muxLiveSessions atomic.Int64
	muxLiveStreams  atomic.Int64

	acceptDone chan struct{}
}

type pendingConn struct {
	conn     *muxStream
	peerAddr string
	arrived  time.Time
}

// NewBroker starts a broker listening on listenAddr (use
// "127.0.0.1:0" to pick a free port).
func NewBroker(listenAddr string) (*Broker, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	b := &Broker{
		ln:         ln,
		addr:       ln.Addr().String(),
		waiting:    make(map[string]waiter),
		pending:    make(map[string]pendingConn),
		muxSess:    make(map[string]*muxEntry),
		muxAll:     make(map[*session]struct{}),
		pendingTTL: rendezvousTimeout,
		closedCh:   make(chan struct{}),
		acceptDone: make(chan struct{}),
	}
	b.ins.Store(newBrokerInstruments(obs.NewScope()))
	b.res.Store(new(Resilience))
	b.psk.Store(new([]byte))
	go b.acceptLoop()
	return b, nil
}

// SetFaults installs a fault injector on every future connection of
// this broker, inbound and outbound (nil removes injection). Existing
// connections are unaffected.
func (b *Broker) SetFaults(inj *faults.Injector) {
	b.flt.Store(inj)
}

// injector returns the active fault injector; the zero value is a nil
// *faults.Injector, whose methods are all no-ops.
func (b *Broker) injector() *faults.Injector { return b.flt.Load() }

// SetResilience sets the retry policy of every link created after the
// call (how long an outage is ridden out before the link degrades; see
// Resilience), and gives every session established after it the
// policy's heartbeat and miss deadline. The policy is local: it does
// not change the wire, so peers may differ.
func (b *Broker) SetResilience(r Resilience) {
	b.res.Store(&r)
}

// resilience returns the active retry policy.
func (b *Broker) resilience() Resilience {
	return *b.res.Load()
}

// SetTraceSampling arranges for every Nth outbound DATA frame of every
// link on this broker to carry a fresh causal trace ID (a TRACE frame
// ahead of the data), in addition to any marks applied upstream by
// trace-aware producers (pool dispatch). every <= 0 disables
// auto-sampling. Trace frames ride outside the credit and offset
// accounting and are never replayed after a reconnect — sampling is
// best-effort by design, so the disabled path stays free.
func (b *Broker) SetTraceSampling(every int) {
	b.smp.Store(obs.NewSampler(every))
}

// traceSampler returns the active auto-sampler, nil when disabled.
func (b *Broker) traceSampler() *obs.Sampler { return b.smp.Load() }

// SetCompression toggles columnar block compression of outbound DATA
// payloads for links created after the call (on by default). Decoding
// of inbound compressed frames is always available, so peers may
// differ in this setting without protocol risk.
func (b *Broker) SetCompression(on bool) { b.cmpOff.Store(!on) }

// compression reports whether new outbound links compress.
func (b *Broker) compression() bool { return !b.cmpOff.Load() }

// expirePending drops parked connections nobody claimed within the
// TTL; it runs opportunistically whenever a connection is parked, on a
// session's read loop, which must not write: the FINs go out from a
// goroutine. Caller holds b.mu.
func (b *Broker) expirePending(now time.Time) {
	for tok, p := range b.pending {
		if now.Sub(p.arrived) > b.pendingTTL {
			go p.conn.Close()
			delete(b.pending, tok)
		}
	}
}

// Addr returns the broker's listen address, which identifies this node
// to its peers.
func (b *Broker) Addr() string { return b.addr }

// BytesIn reports the total channel payload bytes received by this
// node: dpn_conduit_link_logical_bytes_total{dir="in"}. The §4.3
// redirection test uses these counts to prove that no traffic relays
// through the original host after a second move.
func (b *Broker) BytesIn() int64 { return b.ins.Load().logicalIn.Value() }

// BytesOut reports the total channel payload bytes sent by this node
// (dpn_conduit_link_logical_bytes_total{dir="out"}).
func (b *Broker) BytesOut() int64 { return b.ins.Load().logicalOut.Value() }

// Close shuts the listener down and closes pending connections.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	close(b.closedCh)
	pend := b.pending
	b.pending = map[string]pendingConn{}
	wait := b.waiting
	b.waiting = map[string]waiter{}
	b.mu.Unlock()
	err := b.ln.Close()
	for _, p := range pend {
		p.conn.Close()
	}
	// Rendezvous registrations that never matched can no longer be
	// satisfied; notify their owners so serving handles finish and their
	// watchers exit instead of leaking.
	for _, w := range wait {
		w.cancel(ErrBrokerClosed)
	}
	// Sessions are this broker's sockets toward its peers; closing them
	// is what returns the per-pair FDs to the OS.
	b.closeMuxSessions()
	<-b.acceptDone
	return err
}

func (b *Broker) acceptLoop() {
	defer close(b.acceptDone)
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return
		}
		go b.handleConn(b.injector().Conn(conn))
	}
}

// handleConn runs the accept half of the session handshake on an
// inbound connection — one that opens with anything but Magic, or with
// nothing within handshakeTimeout, is closed — then pools the session
// under the peer's announced address, so outbound links reuse it
// symmetrically. Its read loop hands every stream the peer opens to
// arrive.
func (b *Broker) handleConn(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(handshakeTimeout()))
	peer, err := acceptHandshake(conn, *b.psk.Load(), b.addr)
	if err != nil {
		conn.Close()
		if errors.Is(err, ErrAuthFailed) {
			b.ins.Load().muxAuthFail.Inc()
		}
		return
	}
	sess := b.newSession(conn, peer, false)
	b.trackSession(sess, "accept")
	b.adoptSession(sess)
	sess.start()
}

// arrive delivers a stream whose HELLO presented token to the channel
// end waiting for it, or parks it until that end registers (a dial can
// win the race against the registration that a redirect triggers on a
// third node). It runs on the session's read loop, under b.mu, so it
// never blocks and never writes.
func (b *Broker) arrive(st *muxStream, token, peer string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		go st.Close()
		return
	}
	if w, ok := b.waiting[token]; ok {
		delete(b.waiting, token)
		w.fire(st, peer)
		return
	}
	now := time.Now()
	b.expirePending(now)
	// A reconnecting peer may retry the same token before the local end
	// re-arms; the newest connection wins and the displaced one must be
	// closed, or it would leak until process exit.
	if old, ok := b.pending[token]; ok {
		go old.conn.Close()
	}
	b.pending[token] = pendingConn{conn: st, peerAddr: peer, arrived: now}
}

// expectCancelable registers a handler for the next connection
// presenting token; if such a connection already arrived, the handler
// fires immediately. If the broker shuts down while the registration is
// still pending, cancel fires with ErrBrokerClosed instead, so serving
// link ends (and the wire-layer watchers behind them) terminate rather
// than wait forever.
func (b *Broker) expectCancelable(token string, h func(*muxStream, string), cancel func(error)) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrBrokerClosed
	}
	if p, ok := b.pending[token]; ok {
		delete(b.pending, token)
		h(p.conn, p.peerAddr)
		b.mu.Unlock()
		return nil
	}
	if _, dup := b.waiting[token]; dup {
		b.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrTokenInUse, token)
	}
	b.waiting[token] = waiter{fire: h, cancel: cancel}
	b.mu.Unlock()
	return nil
}

// expectWithin waits up to d for a connection presenting token,
// withdrawing the registration on timeout. Used by the serving side of
// a link to re-arm its rendezvous during an outage.
func (b *Broker) expectWithin(token string, d time.Duration) (*muxStream, error) {
	arrived := make(chan *muxStream, 1) // the one fire, or nil when the broker closes
	if err := b.expectCancelable(token, func(conn *muxStream, _ string) { arrived <- conn },
		func(error) { arrived <- nil }); err != nil {
		return nil, err
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	var conn *muxStream
	select {
	case conn = <-arrived:
	case <-timer.C:
		// Once withdrawn the registration cannot fire; one that fired
		// first has left its connection.
		b.mu.Lock()
		delete(b.waiting, token)
		b.mu.Unlock()
		select {
		case conn = <-arrived:
		default:
			return nil, ErrRendezvousTimeout
		}
	}
	if conn == nil {
		return nil, ErrBrokerClosed
	}
	return conn, nil
}

// handshakeTimeoutNs bounds both sides of connection setup: the
// accept path's session handshake, and the dial path's TCP connect and
// session handshake. Without it a silent or black-holed peer would pin
// a goroutine (and its connection) forever. Atomic so tests can compress it while brokers from earlier
// tests still hold live accept goroutines.
var handshakeTimeoutNs atomic.Int64

func init() { handshakeTimeoutNs.Store(int64(30 * time.Second)) }

func handshakeTimeout() time.Duration {
	return time.Duration(handshakeTimeoutNs.Load())
}

func setHandshakeTimeout(d time.Duration) { handshakeTimeoutNs.Store(int64(d)) }

var tokenSeq atomic.Int64

// NewToken returns a node-unique rendezvous token.
func (b *Broker) NewToken() string {
	return fmt.Sprintf("%s/%d", b.addr, tokenSeq.Add(1))
}
