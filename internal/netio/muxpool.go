package netio

import (
	"errors"
	"net"
	"os"
	"time"
)

// This file is the broker's session pool: one authenticated,
// long-lived connection per peer pair, carrying every channel link
// between the pair as a stream.
//
// dial() opens a stream with the HELLO that names its rendezvous token;
// the peer's session read loop hands it to the rendezvous matcher
// (arrive). The session owns liveness: when it dies (peer silent or not
// draining, see newSession), its streams fail, links whose policy
// retries re-dial, the pool builds (or reuses) a fresh session, and the
// RESUME offset handshake replays whatever the outage swallowed —
// durable WAL journaling and block compression ride per link and never
// notice the session boundary.
//
// Sessions are pooled under the peer broker's *announced* listen
// address, and both the dialing and the accepting side register them,
// so whichever side later needs a link toward the other reuses the one
// connection instead of opening a second: a connected peer pair holds
// exactly one TCP socket no matter how many channels run between them,
// which is the point (§4.2's per-stream server sockets, inverted).

// muxEntry is one pooled session, or one in-flight attempt to build
// it. ready is closed once sess/err settle, so concurrent dials to the
// same peer coalesce onto a single handshake.
type muxEntry struct {
	ready chan struct{}
	sess  *session
	err   error
}

// SetPSK sets the cluster pre-shared key for the challenge/response
// peer authentication of every session established after the call;
// nil accepts any peer that speaks the protocol. Set the same key on
// every broker of a graph.
func (b *Broker) SetPSK(psk []byte) { b.psk.Store(&psk) }

// MuxSessions reports the number of live mux sessions this broker
// holds (the dpn_mux_sessions_live gauge).
func (b *Broker) MuxSessions() int64 { return b.muxLiveSessions.Load() }

// MuxStreams reports the number of live streams across all
// sessions (the dpn_mux_streams_live gauge).
func (b *Broker) MuxStreams() int64 { return b.muxLiveStreams.Load() }

// dial opens a stream toward the peer broker at addr, with the HELLO
// that presents token, over the pooled per-peer session (whose conn the
// injector already wraps).
func (b *Broker) dial(addr, token string) (*muxStream, error) {
	if err := b.injector().DialError(); err != nil {
		return nil, err
	}
	for {
		sess, err := b.muxSession(addr)
		if err != nil {
			return nil, err
		}
		st, err := sess.open(token, b.addr)
		switch {
		case err == nil:
			b.noteFrame(frameHello, true)
			return st, nil
		case st != nil || errors.Is(err, ErrStreamLimit):
			return nil, err // the HELLO failed, or the session is full
		}
		// The pooled session died between lookup and open; drop it and
		// build a fresh one.
		b.muxForget(addr, sess)
	}
}

// muxSession returns the pooled session for addr, dialing and
// handshaking one if none exists. Concurrent callers coalesce: one
// dials, the rest wait on the entry and share the outcome.
func (b *Broker) muxSession(addr string) (*session, error) {
	for {
		select {
		case <-b.closedCh:
			return nil, ErrBrokerClosed
		default:
		}
		b.muxMu.Lock()
		e, ok := b.muxSess[addr]
		if !ok {
			e = &muxEntry{ready: make(chan struct{})}
			b.muxSess[addr] = e
			b.muxMu.Unlock()
			sess, err := b.dialMuxSession(addr)
			// Settle the entry under the pool lock: muxForget compares
			// e.sess without waiting on ready, so the fields must never
			// be written outside it.
			b.muxMu.Lock()
			e.sess, e.err = sess, err
			if err != nil && b.muxSess[addr] == e {
				delete(b.muxSess, addr)
			}
			b.muxMu.Unlock()
			close(e.ready)
			return sess, err
		}
		b.muxMu.Unlock()
		select {
		case <-e.ready:
		case <-b.closedCh:
			return nil, ErrBrokerClosed
		}
		if e.err != nil {
			return nil, e.err
		}
		select {
		case <-e.sess.done:
			// Stale entry from a dead session; retire it and retry.
			b.muxForget(addr, e.sess)
			continue
		default:
			return e.sess, nil
		}
	}
}

// muxForget drops the pool entry for addr if it still points at sess.
func (b *Broker) muxForget(addr string, sess *session) {
	b.muxMu.Lock()
	if e, ok := b.muxSess[addr]; ok && e.sess == sess {
		delete(b.muxSess, addr)
	}
	b.muxMu.Unlock()
}

// dialMuxSession opens the TCP connection, wraps it in the fault
// injector ONCE (every stream inherits the chaos), and runs the
// dialer half of the authenticated handshake.
func (b *Broker) dialMuxSession(addr string) (*session, error) {
	raw, err := net.DialTimeout("tcp", addr, handshakeTimeout())
	if err != nil {
		return nil, err
	}
	conn := b.injector().Conn(raw)
	conn.SetDeadline(time.Now().Add(handshakeTimeout()))
	peer, err := dialHandshake(conn, *b.psk.Load(), b.addr)
	if err != nil {
		conn.Close()
		if errors.Is(err, ErrAuthFailed) {
			b.ins.Load().muxAuthFail.Inc()
		}
		return nil, err
	}
	sess := b.newSession(conn, peer, true)
	b.trackSession(sess, "dial")
	sess.start()
	return sess, nil
}

// adoptSession offers an accepted session to the pool under the peer's
// announced address. An existing live entry wins — simultaneous dials
// from both sides may briefly yield two sessions for a pair, and the
// pool just keeps using whichever it already has.
func (b *Broker) adoptSession(sess *session) {
	addr := sess.peer
	if addr == "" {
		return
	}
	b.muxMu.Lock()
	usable := false
	if e, exists := b.muxSess[addr]; exists {
		usable = true
		if e.sess != nil {
			select {
			case <-e.sess.done:
				usable = false // dead entry its watcher hasn't retired yet
			default:
			}
		}
	}
	if !usable {
		e := &muxEntry{ready: make(chan struct{}), sess: sess}
		close(e.ready)
		b.muxSess[addr] = e
	}
	b.muxMu.Unlock()
}

// trackSession records the session for Close teardown, feeds the
// session metrics, and retires its pool entry when it dies, so the next
// dial builds a fresh one instead of opening streams into a corpse.
func (b *Broker) trackSession(sess *session, role string) {
	ins := b.ins.Load()
	if role == "dial" {
		ins.muxSessDial.Inc()
	} else {
		ins.muxSessAccept.Inc()
	}
	b.muxMu.Lock()
	b.muxAll[sess] = struct{}{}
	b.muxMu.Unlock()
	n := b.muxLiveSessions.Add(1)
	ins.muxSessionsLive.Set(n)
	b.noteMuxStreams(b.muxLiveStreams.Load())
	select {
	case <-b.closedCh:
		// Lost the race against Close; tear the session down ourselves.
		sess.Close()
	default:
	}
	go func() {
		<-sess.done
		b.muxMu.Lock()
		delete(b.muxAll, sess)
		for addr, e := range b.muxSess {
			if e.sess == sess {
				delete(b.muxSess, addr)
			}
		}
		b.muxMu.Unlock()
		n := b.muxLiveSessions.Add(-1)
		b.ins.Load().muxSessionsLive.Set(n)
		b.noteMuxStreams(b.muxLiveStreams.Load())
		if errors.Is(sess.Err(), os.ErrDeadlineExceeded) {
			b.noteLink("miss")
		}
	}()
}

// closeMuxSessions tears down every live session; part of Broker.Close,
// after which the peer-pair sockets are returned to the OS.
func (b *Broker) closeMuxSessions() {
	b.muxMu.Lock()
	sessions := make([]*session, 0, len(b.muxAll))
	for s := range b.muxAll {
		sessions = append(sessions, s)
	}
	b.muxAll = make(map[*session]struct{})
	b.muxSess = make(map[string]*muxEntry)
	b.muxMu.Unlock()
	for _, s := range sessions {
		s.Close()
	}
}
