package netio

import (
	"errors"
	"fmt"
	"io"
)

// This file is the link protocol — DESIGN.md, "What heals: one link
// protocol" — as one state machine for both ends of a link, with no
// socket, goroutine, lock or clock in it. The driver (link.go) feeds it
// events and carries out the actions each step appends; every row of
// the DESIGN.md frame table is one transition below, named in the
// comment that applies it.

// phase is where a link end stands with respect to its connection.
type phase uint8

const (
	phaseDown   phase = iota // no connection: before the first, or between two
	phaseResume              // connection up, RESUME exchange unfinished
	phaseOpen                // RESUME exchanged: the stream flows
	phaseDone                // finished; later events are ignored
)

type evKind uint8

const (
	evUp         evKind = iota // a connection is up; f.addr names the peer broker ("" keeps the last)
	evFrame                    // frame f arrived on the live connection
	evChunk                    // the source produced chunk c (writer end)
	evSourceEnd                // the source ended with err, io.EOF if cleanly (writer end)
	evSinkFailed               // the sink refused a delivery: its reader closed (reader end)
	evLost                     // the live connection failed with err; while down, the reconnect gave up
	evExpired                  // the wait for the peer's RESUME ran out
	evMove                     // Handle.Move: f is the MOVING to announce (reader end)
	evRedirect                 // Handle.Redirect: f.token is the writer's next rendezvous (writer end)
)

type event struct {
	kind evKind
	f    frame
	c    outChunk
	err  error
}

type actKind uint8

const (
	actCtrl      actKind = iota // write control frame f
	actData                     // write chunk c as one DATA or DATA-C frame
	actDeliver                  // write f.payload into the sink, then ACK it
	actMark                     // a TRACE frame arrived: mark f.off on the sink
	actAcked                    // the receiver confirmed offset f.off: tell a journaling source
	actStall                    // the credit window held a chunk back
	actRelease                  // lift the sink's capacity bound, its reader suspended for a move (Move does it)
	actReconnect                // drop the live connection; get the next: rendezvous f.token, or dial f.addr
	actRearm                    // serve a fresh rendezvous for f.token into the sink
	actClose                    // close the local channel end: the §3.4 cascade
	actFinish                   // the link is over with err; its connection closes after what was written
)

// action is one thing a step asks the driver to do.
type action struct {
	kind actKind
	f    frame
	c    outChunk
	err  error
	// actData: first marks a chunk's first send, which may carry a trace
	// mark (a replay never does); own that c's buffer returns to the
	// pool after the write, the replay queue having kept a copy.
	first, own bool
	// actReconnect: serve re-arms the rendezvous instead of dialling;
	// move is the re-dial a MOVING asked for, not an outage; fresh
	// starts a new outage (the lost connection had opened).
	serve, move, fresh bool
	// actFinish: the link degraded after an outage (a link failure).
	degraded bool
}

func ctrl(f frame) action { return action{kind: actCtrl, f: f} }

// linkCore is the protocol state of one link end. The writer end
// (outbound) pumps a local source to the remote reader under a credit
// window, retaining unacknowledged bytes for replay; the reader end
// (inbound) delivers into a local sink and acknowledges. Its one
// buffer is the replay queue; pending is a single chunk in hand.
type linkCore struct {
	outbound bool
	phase    phase
	// The next connection is the rendezvous for token when serve is
	// set, a dial to addr otherwise; a MOVING re-points a writer end at
	// the reader's new host (moved until it connects there).
	serve       bool
	addr, token string
	peer        string // the other end's broker
	moved       bool

	// Writer end.
	window, frameMax int
	sendOff, ackOff  uint64 // offset after the last chunk sent; offset the receiver confirmed
	unacked          replayQueue
	pending          outChunk
	srcEnd           error  // why the source ended; nil while it has not
	finalSent        bool   // on this connection
	redirect         string // the final frame is REDIRECT(redirect), or EOF if empty
	stalled          bool
	rewind           func(off uint64) error // skips a journal-backed source forward; nil if it cannot
	confirmed        func(off uint64)       // tells a journal-backed source the receiver confirmed off; nil if none

	// Reader end.
	delivered uint64 // bytes handed to the sink
	moving    frame  // the MOVING Move announced; kind 0 until then
}

// dataBound is the most DATA a reader end holds unacknowledged for a
// writer that announced window in its RESUME: the writer's credit check
// lets what is in flight reach max(window, one frame), so a writer that
// keeps the protocol never meets it. Past it is ErrBadFrame.
func dataBound(window int) int { return window + coalesceMax }

// wantsChunk reports whether the writer end takes a source chunk now.
func (c *linkCore) wantsChunk() bool {
	return c.outbound && c.phase == phaseOpen && c.pending.data == nil && c.srcEnd == nil
}

// step applies one event and appends the actions it calls for to out.
func (c *linkCore) step(ev event, out []action) []action {
	if c.phase == phaseDone {
		return out
	}
	switch ev.kind {
	case evUp:
		// RESUME opens every connection. The reader speaks first with
		// the offset it delivered, and repeats a MOVING an earlier
		// connection may have swallowed — never ahead of the RESUME.
		c.phase, c.finalSent, c.moved = phaseResume, false, false
		if ev.f.addr != "" {
			c.peer = ev.f.addr
		}
		if !c.outbound {
			out = append(out, ctrl(frame{kind: frameResume, off: c.delivered}))
			if c.moving.kind != 0 {
				out = append(out, ctrl(c.moving))
			}
		}
	case evFrame:
		switch {
		case c.phase == phaseResume && ev.f.kind != frameResume:
			return c.lost(nil, out) // a connection opens with RESUME or not at all
		case c.phase == phaseResume:
			return c.resumed(ev.f.off, out)
		case c.phase == phaseOpen && c.outbound:
			return c.fromReader(ev.f, out)
		case c.phase == phaseOpen:
			return c.fromWriter(ev.f, out)
		}
	case evLost:
		return c.lost(ev.err, out)
	case evExpired:
		if c.phase == phaseResume {
			return c.lost(nil, out)
		}
	case evChunk:
		c.pending = ev.c
		return c.pump(out)
	case evSourceEnd:
		c.srcEnd = ev.err
		return c.pump(out)
	case evSinkFailed:
		// CLOSEREAD: the local reader closed; poison the writer.
		return c.end(append(out, ctrl(frame{kind: frameCloseRead})), nil, false)
	case evMove:
		// MOVING, on a connection whose RESUME is out. The sink is
		// released at once: the writer sends until the MOVING reaches
		// it, nothing drains the suspended reader's buffer, and the FENCE
		// arrives behind all of it.
		if c.phase == phaseResume || c.phase == phaseOpen {
			c.moving = ev.f
			out = append(out, action{kind: actRelease}, ctrl(ev.f))
		}
	case evRedirect:
		c.redirect = ev.f.token
	}
	return out
}

// lost handles the end of the live connection: an outage the driver
// rides out or not by its retry policy — or, while already down, the
// outage the reconnect gave up on.
func (c *linkCore) lost(err error, out []action) []action {
	switch {
	case c.phase == phaseDown:
		return c.degrade(err, out)
	case !c.outbound && errors.Is(err, ErrBadFrame):
		return c.end(out, ErrBadFrame, true) // wire corruption: nothing to resume
	}
	fresh := c.phase == phaseOpen
	c.phase = phaseDown
	return append(out, action{kind: actReconnect, f: frame{addr: c.addr, token: c.token}, serve: c.serve, fresh: fresh})
}

// degrade ends the link after an outage its policy could not heal: the
// local channel end is poisoned so the process network terminates by
// cascading close instead of hanging (§3.4 across machines).
func (c *linkCore) degrade(err error, out []action) []action {
	switch {
	case c.moved:
		return c.end(out, fmt.Errorf("netio: reconnect after MOVING: %w", err), true)
	case !c.outbound:
		err = fmt.Errorf("%w: %w", ErrTruncated, err) // what the reader drained is only a prefix
	case c.srcEnd == io.EOF && c.pending.data == nil && c.unacked.n == 0:
		// Every byte was confirmed; only the BYE is outstanding, and the
		// receiver degrades on its own: this end closes clean.
		err = nil
	}
	out = c.end(out, err, true)
	out[len(out)-1].degraded = true
	return out
}

// end finishes the link with err, closing the local channel end first
// if close is set.
func (c *linkCore) end(out []action, err error, close bool) []action {
	c.phase = phaseDone
	if close {
		out = append(out, action{kind: actClose})
	}
	return append(out, action{kind: actFinish, err: err})
}

// resumed completes the RESUME exchange. The reader end has its
// confirmation. The writer end has the receiver's delivered offset: it
// confirms the offset it resumes from; bytes before it leave the
// replay queue, bytes after it are replayed.
func (c *linkCore) resumed(off uint64, out []action) []action {
	if !c.outbound {
		c.phase = phaseOpen
		return out
	}
	off = max(off, c.ackOff)
	if off > c.sendOff {
		// The receiver holds bytes this incarnation never sent: the
		// sender restarted and its journal-backed source replays from
		// zero, so skip it forward. Only before the first open (the
		// driver starts reading the source after it): nothing is staged
		// and nothing retained. A source that cannot skip rejects the
		// connection rather than corrupt the stream.
		if c.rewind == nil || c.rewind(off) != nil {
			return c.lost(nil, out)
		}
		c.unacked.drop()
		c.sendOff = off
	}
	c.phase = phaseOpen
	out = append(c.acked(off, out), ctrl(frame{kind: frameResume, off: off, window: c.window}))
	for k := 0; k < c.unacked.n; k++ {
		out = append(out, action{kind: actData, c: c.unacked.at(k).c})
	}
	return c.pump(out)
}

// acked advances the confirmed offset: confirmed bytes leave the replay
// queue and a journaling source may truncate behind them.
func (c *linkCore) acked(off uint64, out []action) []action {
	c.ackOff = off
	c.unacked.trim(off)
	return append(out, action{kind: actAcked, f: frame{off: off}})
}

// pump sends what the writer end may: the staged chunk if the credit
// window has room for it (DATA), then — source exhausted and all sent —
// the final frame, EOF or REDIRECT, which the BYE confirms.
func (c *linkCore) pump(out []action) []action {
	if c.phase != phaseOpen {
		return out
	}
	if n := len(c.pending.data); n > 0 {
		// The receiving pipe's capacity bounds the channel end to end.
		if inFlight := int(c.sendOff - c.ackOff); inFlight > 0 && inFlight+n > c.window {
			if !c.stalled {
				c.stalled = true
				out = append(out, action{kind: actStall})
			}
			return out
		}
		own := c.unacked.push(c.sendOff, c.pending, c.frameMax)
		out = append(out, action{kind: actData, c: c.pending, first: true, own: own, f: frame{token: c.token}})
		c.sendOff += uint64(n)
		c.pending, c.stalled = outChunk{}, false
	}
	switch {
	case c.srcEnd == nil || c.pending.data != nil || c.finalSent:
		return out
	case c.srcEnd != io.EOF:
		return c.end(out, c.srcEnd, true)
	}
	c.finalSent = true
	if c.redirect != "" {
		return append(out, ctrl(frame{kind: frameRedirect, token: c.redirect}))
	}
	return append(out, ctrl(frame{kind: frameEOF}))
}

// fromReader applies a control-direction frame at the open writer end.
func (c *linkCore) fromReader(f frame, out []action) []action {
	switch f.kind {
	case frameAck:
		// ACK: n logical bytes of credit; the confirmed offset advances.
		return c.pump(c.acked(c.ackOff+min(uint64(f.ack), c.sendOff-c.ackOff), out))
	case frameCloseRead:
		return c.end(out, nil, true) // CLOSEREAD: cascade upstream
	case frameBye:
		if c.finalSent {
			return c.end(out, nil, true) // BYE: the reader took the final frame
		}
	case frameMoving:
		// FENCE answers MOVING: nothing follows on this connection, and
		// the link continues at the reader's new host. Every byte sent
		// before the fence reached the old host's buffer and travels in
		// the migration parcel, so the offsets rebase to zero. A final
		// frame still awaiting its BYE is sent again there.
		c.unacked.drop()
		c.sendOff, c.ackOff, c.stalled = 0, 0, false
		c.serve, c.addr, c.token, c.moved, c.phase = false, f.addr, f.token, true, phaseDown
		return append(out, ctrl(frame{kind: frameFence}),
			action{kind: actReconnect, f: frame{addr: f.addr, token: f.token}, move: true, fresh: true})
	}
	return out
}

// fromWriter applies a data-direction frame at the open reader end.
func (c *linkCore) fromWriter(f frame, out []action) []action {
	switch f.kind {
	case frameTrace:
		return append(out, action{kind: actMark, f: frame{off: f.off, token: c.token}})
	case frameData, frameDataC:
		c.delivered += uint64(len(f.payload))
		return append(out, action{kind: actDeliver, f: f})
	case frameEOF, frameRedirect:
		if c.moving.kind != 0 {
			// A MOVING is out: the writer, still awaiting its BYE, answers
			// it with a FENCE and takes this final frame to the new host.
			return out
		}
		// BYE: EOF closes the sink; REDIRECT re-arms the rendezvous on
		// this broker, where the writer's new host connects directly.
		out = append(out, ctrl(frame{kind: frameBye}))
		if f.kind == frameEOF {
			return c.end(out, nil, true)
		}
		return c.end(append(out, action{kind: actRearm, f: f}), nil, false)
	case frameFence:
		// The writer moved on to our reader's new host. The sink stays
		// open: the migration drains it into the parcel.
		return c.end(out, nil, false)
	}
	return c.end(out, ErrBadFrame, true)
}
