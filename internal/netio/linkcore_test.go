package netio

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"dpn/internal/stream"
)

// These tests drive the link core alone: events in, actions out, no
// goroutine, socket or clock.

var actNames = [...]string{
	actCtrl: "ctrl", actData: "data", actDeliver: "deliver", actMark: "mark",
	actAcked: "acked", actStall: "stall", actRelease: "release", actReconnect: "reconnect",
	actRearm: "rearm", actClose: "close", actFinish: "finish",
}

// describe renders actions as a compact script, e.g.
// "acked:4 ctrl:resume data:6".
func describe(out []action) string {
	var s []string
	for _, a := range out {
		d := actNames[a.kind]
		switch a.kind {
		case actCtrl:
			d += ":" + frameKindName(a.f.kind)
		case actData:
			d += fmt.Sprintf(":%d", len(a.c.data))
		case actDeliver:
			d += fmt.Sprintf(":%d", len(a.f.payload))
		case actAcked:
			d += fmt.Sprintf(":%d", a.f.off)
		case actReconnect:
			if a.serve {
				d += ":serve"
			}
			if a.move {
				d += ":move"
			}
			if a.fresh {
				d += ":fresh"
			}
		case actFinish:
			if a.err != nil {
				d += ":err"
			}
		}
		s = append(s, d)
	}
	return strings.Join(s, " ")
}

func chunkOf(s string) outChunk { return queuedChunk([]byte(s)) }

func writerAt(p phase) *linkCore {
	return &linkCore{outbound: true, phase: p, window: 100, frameMax: 64, addr: "r:1", token: "t"}
}

func readerAt(p phase) *linkCore {
	return &linkCore{phase: p, serve: true, token: "t"}
}

// TestLinkCoreTransitions is DESIGN.md's frame table, one case per
// transition: a state and an event in, the actions out.
func TestLinkCoreTransitions(t *testing.T) {
	frameEv := func(f frame) event { return event{kind: evFrame, f: f} }
	cases := []struct {
		name  string
		core  func() *linkCore
		ev    event
		want  string
		check func(t *testing.T, c *linkCore)
	}{
		{"RESUME: the reader speaks first", func() *linkCore {
			c := readerAt(phaseDown)
			c.delivered = 42
			return c
		}, event{kind: evUp}, "ctrl:resume", nil},
		{"RESUME: the reader repeats an unfenced MOVING behind it", func() *linkCore {
			c := readerAt(phaseDown)
			c.moving = frame{kind: frameMoving, addr: "c:1", token: "m"}
			return c
		}, event{kind: evUp}, "ctrl:resume ctrl:moving", nil},
		{"RESUME: the writer waits for the reader", func() *linkCore { return writerAt(phaseDown) },
			event{kind: evUp, f: frame{addr: "r:2"}}, "", func(t *testing.T, c *linkCore) {
				if c.phase != phaseResume || c.peer != "r:2" {
					t.Fatalf("phase %d peer %q", c.phase, c.peer)
				}
			}},
		{"RESUME: the writer confirms, trims and replays", func() *linkCore {
			c := writerAt(phaseResume)
			c.unacked.push(0, chunkOf("0123456789"), c.frameMax)
			c.sendOff = 10
			return c
		}, frameEv(frame{kind: frameResume, off: 4}), "acked:4 ctrl:resume data:6", nil},
		{"RESUME: a connection opening with anything else is rejected", func() *linkCore { return writerAt(phaseResume) },
			frameEv(frame{kind: frameMoving, addr: "c:1", token: "m"}), "reconnect", nil},
		{"RESUME: the wait for it runs out", func() *linkCore { return readerAt(phaseResume) },
			event{kind: evExpired}, "reconnect:serve", nil},
		{"RESUME: a restarted writer rewinds its journal", func() *linkCore {
			c := writerAt(phaseResume)
			c.rewind = func(uint64) error { return nil }
			return c
		}, frameEv(frame{kind: frameResume, off: 100}), "acked:100 ctrl:resume", func(t *testing.T, c *linkCore) {
			if c.sendOff != 100 {
				t.Fatalf("sendOff %d after the rewind, want 100", c.sendOff)
			}
		}},
		{"RESUME: a source that cannot rewind rejects a reader ahead of it", func() *linkCore { return writerAt(phaseResume) },
			frameEv(frame{kind: frameResume, off: 100}), "reconnect", nil},
		{"DATA: sent within the window", func() *linkCore { return writerAt(phaseOpen) },
			event{kind: evChunk, c: chunkOf("0123456789")}, "data:10", func(t *testing.T, c *linkCore) {
				if c.sendOff != 10 || c.unacked.n != 1 {
					t.Fatalf("sendOff %d, %d retained", c.sendOff, c.unacked.n)
				}
			}},
		{"DATA: held back at the window", func() *linkCore {
			c := writerAt(phaseOpen)
			c.sendOff = 95
			return c
		}, event{kind: evChunk, c: chunkOf("0123456789")}, "stall", nil},
		{"DATA: delivered, then acknowledged", func() *linkCore { return readerAt(phaseOpen) },
			frameEv(frame{kind: frameData, payload: []byte("abcde")}), "deliver:5", func(t *testing.T, c *linkCore) {
				if c.delivered != 5 {
					t.Fatalf("delivered %d", c.delivered)
				}
			}},
		{"TRACE: marks the sink", func() *linkCore { return readerAt(phaseOpen) },
			frameEv(frame{kind: frameTrace, off: 7}), "mark", nil},
		{"ACK: credit releases the held chunk", func() *linkCore {
			c := writerAt(phaseOpen)
			c.sendOff, c.pending, c.stalled = 95, chunkOf("0123456789"), true
			return c
		}, frameEv(frame{kind: frameAck, ack: 95}), "acked:95 data:10", nil},
		{"EOF: the writer's source ended", func() *linkCore { return writerAt(phaseOpen) },
			event{kind: evSourceEnd, err: io.EOF}, "ctrl:eof", nil},
		{"REDIRECT: the writer is moving", func() *linkCore {
			c := writerAt(phaseOpen)
			c.redirect = "next"
			return c
		}, event{kind: evSourceEnd, err: io.EOF}, "ctrl:redirect", nil},
		{"EOF: the source failed instead", func() *linkCore { return writerAt(phaseOpen) },
			event{kind: evSourceEnd, err: errors.New("boom")}, "close finish:err", nil},
		{"BYE: the reader takes EOF and closes the sink", func() *linkCore { return readerAt(phaseOpen) },
			frameEv(frame{kind: frameEOF}), "ctrl:bye close finish", nil},
		{"BYE: the reader takes REDIRECT and re-arms", func() *linkCore { return readerAt(phaseOpen) },
			frameEv(frame{kind: frameRedirect, token: "next"}), "ctrl:bye rearm finish", nil},
		{"BYE: the writer finishes", func() *linkCore {
			c := writerAt(phaseOpen)
			c.srcEnd, c.finalSent = io.EOF, true
			return c
		}, frameEv(frame{kind: frameBye}), "close finish", nil},
		{"CLOSEREAD: the local reader closed", func() *linkCore { return readerAt(phaseOpen) },
			event{kind: evSinkFailed}, "ctrl:close-read finish", nil},
		{"CLOSEREAD: the writer cascades upstream", func() *linkCore { return writerAt(phaseOpen) },
			frameEv(frame{kind: frameCloseRead}), "close finish", nil},
		{"MOVING: announced on a live connection", func() *linkCore { return readerAt(phaseResume) },
			event{kind: evMove, f: frame{kind: frameMoving, addr: "c:1", token: "m"}}, "release ctrl:moving", nil},
		{"MOVING: nobody to tell between connections", func() *linkCore { return readerAt(phaseDown) },
			event{kind: evMove, f: frame{kind: frameMoving, addr: "c:1", token: "m"}}, "", nil},
		{"FENCE: the writer answers MOVING and re-dials", func() *linkCore {
			c := writerAt(phaseOpen)
			c.unacked.push(0, chunkOf("0123456789"), c.frameMax)
			c.sendOff = 10
			return c
		}, frameEv(frame{kind: frameMoving, addr: "c:1", token: "m"}), "ctrl:fence reconnect:move:fresh", func(t *testing.T, c *linkCore) {
			if c.sendOff != 0 || c.unacked.n != 0 || c.addr != "c:1" || c.serve {
				t.Fatalf("after the fence: sendOff %d, %d retained, addr %q serve %v", c.sendOff, c.unacked.n, c.addr, c.serve)
			}
		}},
		{"FENCE: the reader's link is over, its sink left open", func() *linkCore { return readerAt(phaseOpen) },
			frameEv(frame{kind: frameFence}), "finish", nil},
		{"outage: a live connection is lost", func() *linkCore { return writerAt(phaseOpen) },
			event{kind: evLost, err: errors.New("reset")}, "reconnect:fresh", nil},
		{"outage: the reader degrades to a truncated stream", func() *linkCore { return readerAt(phaseDown) },
			event{kind: evLost, err: ErrLinkDeadline}, "close finish:err", func(t *testing.T, c *linkCore) {
				if c.phase != phaseDone {
					t.Fatal("degraded reader not done")
				}
			}},
		{"outage: a writer with only the BYE outstanding closes clean", func() *linkCore {
			c := writerAt(phaseDown)
			c.srcEnd, c.finalSent = io.EOF, true
			return c
		}, event{kind: evLost, err: ErrLinkDeadline}, "close finish", nil},
		{"corruption: an unexpected frame at the reader", func() *linkCore { return readerAt(phaseOpen) },
			frameEv(frame{kind: frameAck, ack: 1}), "close finish:err", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.core()
			defer c.unacked.drop()
			if got := describe(c.step(tc.ev, nil)); got != tc.want {
				t.Fatalf("actions %q, want %q", got, tc.want)
			}
			if tc.check != nil {
				tc.check(t, c)
			}
		})
	}
	// The transitions whose meaning is in an action's fields: the
	// window a RESUME announces, the error a link finishes with.
	for _, tc := range []struct {
		name string
		core *linkCore
		ev   event
		want string
		act  int // the action checked
		ok   func(a action) bool
	}{
		{"RESUME: the writer announces its credit window", writerAt(phaseResume), frameEv(frame{kind: frameResume}),
			"acked:0 ctrl:resume", 1, func(a action) bool { return a.f.window == 100 }},
		{"RESUME: a window past 32 bits is announced as the most its bound fits in them", func() *linkCore {
			c := &newTestBroker(t).newLink(stream.NewPipe(1).ReadEnd(), nil, math.MaxInt, false, "r:1", "t").core
			c.phase = phaseResume
			return c
		}(), frameEv(frame{kind: frameResume}), "acked:0 ctrl:resume", 1, func(a action) bool {
			rec, err := appendFrame(nil, 1, a.f)
			if err != nil {
				return false
			}
			f, err := decodeFrame(rec)
			return err == nil && f.window > 0 && uint64(f.window)+coalesceMax <= 1<<32-1
		}},
		{"RESUME: the reader announces none", readerAt(phaseDown), event{kind: evUp},
			"ctrl:resume", 0, func(a action) bool { return a.f.window == 0 }},
		{"overrun: the writer sent past its window and one frame", readerAt(phaseOpen), event{kind: evLost, err: errOverrun},
			"close finish:err", 1, func(a action) bool { return a.err == ErrBadFrame }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := tc.core.step(tc.ev, nil)
			if got := describe(out); got != tc.want {
				t.Fatalf("actions %q, want %q", got, tc.want)
			}
			if !tc.ok(out[tc.act]) {
				t.Fatalf("action %d is %+v", tc.act, out[tc.act])
			}
		})
	}
}

// simEnd is one link end of a simulated pair: its core, the frames
// waiting for it on its connection, and the actions it has not carried
// out — a delivery into a full sink blocks it, as it blocks the
// driver's goroutine.
type simEnd struct {
	c       linkCore
	conn    *simConn
	queue   []action
	sink    []byte
	room    int // sink capacity; <0 once released
	wrote   []frame
	redial  *action
	sinkEOF bool
	err     error
	done    bool
}

// simConn is one in-order connection: a queue of frames each way.
type simConn struct{ toReader, toWriter []frame }

func (e *simEnd) inbox() *[]frame {
	if e.c.outbound {
		return &e.conn.toWriter
	}
	return &e.conn.toReader
}

func (e *simEnd) outbox() *[]frame {
	if e.c.outbound {
		return &e.conn.toReader
	}
	return &e.conn.toWriter
}

// step applies ev; a release runs at once, ahead of a blocked delivery,
// as Handle.Move runs it.
func (e *simEnd) step(ev event) {
	out := e.c.step(ev, nil)
	for _, a := range out {
		if a.kind == actRelease {
			e.room = -1
		}
	}
	e.queue = append(e.queue, out...)
	e.run()
}

// run carries out queued actions until a delivery finds the sink full.
func (e *simEnd) run() {
	for len(e.queue) > 0 {
		a := e.queue[0]
		switch a.kind {
		case actCtrl, actData:
			f := a.f
			if a.kind == actData {
				f = frame{kind: frameData, payload: append([]byte(nil), a.c.data...)}
			}
			e.wrote = append(e.wrote, f)
			if e.conn != nil {
				*e.outbox() = append(*e.outbox(), f)
			}
		case actDeliver:
			if e.room >= 0 && len(e.sink)+len(a.f.payload) > e.room {
				return
			}
			e.sink = append(e.sink, a.f.payload...)
			e.queue[0] = ctrl(frame{kind: frameAck, ack: len(a.f.payload)})
			continue
		case actReconnect:
			e.conn, e.redial = nil, &a
		case actClose:
			e.sinkEOF = !e.c.outbound
		case actFinish:
			e.conn, e.done, e.err = nil, true, a.err
		}
		e.queue = e.queue[1:]
	}
}

// deliver hands e the next frame waiting for it, if e is free to read.
func (e *simEnd) deliver() bool {
	if e.done || e.conn == nil || len(e.queue) > 0 || len(*e.inbox()) == 0 {
		return false
	}
	f := (*e.inbox())[0]
	*e.inbox() = (*e.inbox())[1:]
	e.step(event{kind: evFrame, f: f})
	return true
}

// connect opens a connection between writer w and reader r.
func connect(w, r *simEnd) {
	conn := &simConn{}
	w.conn, r.conn, w.redial, r.redial = conn, conn, nil, nil
	w.step(event{kind: evUp, f: frame{addr: "peer"}})
	r.step(event{kind: evUp, f: frame{addr: "peer"}})
}

// settle delivers frames until no end can take one.
func settle(ends ...*simEnd) {
	for moved := true; moved; {
		moved = false
		for _, e := range ends {
			for e.deliver() {
				moved = true
			}
		}
	}
}

func newWriter() *simEnd {
	return &simEnd{c: linkCore{outbound: true, window: 1 << 10, frameMax: 64, token: "t", serve: true}}
}

func newReader(room int) *simEnd {
	return &simEnd{c: linkCore{addr: "w:1", token: "t"}, room: room}
}

func wroteKind(e *simEnd, kind byte) bool {
	for _, f := range e.wrote {
		if f.kind == kind {
			return true
		}
	}
	return false
}

// A Move against a reader whose buffer is full must still reach the
// FENCE: the reader end is parked in a delivery nobody drains (the
// reader is suspended for the move), and the MOVING that would stop
// the writer sits behind it unless the move releases the buffer first.
func TestLinkCoreMoveWithFullBufferReachesFence(t *testing.T) {
	w, r := newWriter(), newReader(10)
	connect(w, r)
	settle(w, r)
	w.step(event{kind: evChunk, c: chunkOf("aaaaaaaa")})
	w.step(event{kind: evChunk, c: chunkOf("bbbbbbbb")})
	settle(w, r)
	if len(r.queue) == 0 {
		t.Fatal("the reader's buffer never filled; the script does not test the full-buffer move")
	}
	r.step(event{kind: evMove, f: frame{kind: frameMoving, addr: "c:1", token: "m"}})
	settle(w, r)
	if !r.done || r.err != nil {
		t.Fatalf("the reader end never reached the FENCE (done %v, err %v, %d actions blocked)", r.done, r.err, len(r.queue))
	}
	if got := string(r.sink); got != "aaaaaaaabbbbbbbb" {
		t.Fatalf("the reader's buffer holds %q, want every byte sent before the fence", got)
	}
	if r.sinkEOF || w.redial == nil || !w.redial.move {
		t.Fatalf("sink closed %v, writer re-dial %+v; want an open sink and a move", r.sinkEOF, w.redial)
	}
	w.c.unacked.drop()
}

// A reader that moves while the writer's EOF is in flight sends no BYE:
// the writer, still waiting for one, reads the MOVING, fences, and
// takes its final frame to the reader's new host.
func TestLinkCoreMoveWithEOFInFlight(t *testing.T) {
	w, r, c := newWriter(), newReader(1<<10), newReader(1<<10)
	connect(w, r)
	settle(w, r)
	w.step(event{kind: evChunk, c: chunkOf("hello")})
	w.step(event{kind: evSourceEnd, err: io.EOF})
	if !w.c.finalSent {
		t.Fatal("the writer did not send its EOF")
	}
	r.step(event{kind: evMove, f: frame{kind: frameMoving, addr: "c:1", token: "m"}})
	settle(w, r)
	if wroteKind(r, frameBye) || r.sinkEOF {
		t.Fatal("the moving reader confirmed the EOF: the writer is gone before the new host hears from it")
	}
	if !r.done || string(r.sink) != "hello" {
		t.Fatalf("old host: done %v, buffer %q", r.done, r.sink)
	}
	if w.redial == nil || !w.redial.move || w.redial.f.addr != "c:1" {
		t.Fatalf("writer re-dial %+v, want the move to c:1", w.redial)
	}
	w.wrote = nil
	connect(w, c)
	settle(w, c)
	if !wroteKind(w, frameEOF) {
		t.Fatal("the writer did not re-send its final frame to the new host")
	}
	if !c.done || !c.sinkEOF || len(c.sink) != 0 || !w.done || w.err != nil {
		t.Fatalf("new host done %v eof %v holds %q; writer done %v err %v", c.done, c.sinkEOF, c.sink, w.done, w.err)
	}
}

// A connection must open with RESUME: a writer that reads a MOVING
// first rejects the connection instead of fencing on it (it would rebase
// and re-dial before the RESUME exchange settled the stream offset). On
// the connection that follows, the reader repeats the MOVING behind its
// RESUME and the move completes.
func TestLinkCoreMovingAheadOfResumeIsRejected(t *testing.T) {
	w := newWriter()
	w.conn = &simConn{}
	w.step(event{kind: evUp})
	w.conn.toWriter = append(w.conn.toWriter, frame{kind: frameMoving, addr: "c:1", token: "m"})
	w.deliver()
	if wroteKind(w, frameFence) || w.redial == nil || w.redial.move {
		t.Fatalf("a connection opening with MOVING was not rejected: wrote %v, re-dial %+v", w.wrote, w.redial)
	}

	w, r := newWriter(), newReader(1<<10)
	connect(w, r)
	settle(w, r)
	r.step(event{kind: evMove, f: frame{kind: frameMoving, addr: "c:1", token: "m"}})
	// The connection dies with the MOVING still in flight.
	w.step(event{kind: evLost})
	r.step(event{kind: evLost})
	connect(w, r)
	if got := r.wrote[len(r.wrote)-2:]; got[0].kind != frameResume || got[1].kind != frameMoving {
		t.Fatalf("the reader reopened with %c, %c; want RESUME then MOVING", got[0].kind, got[1].kind)
	}
	settle(w, r)
	if !r.done || w.redial == nil || !w.redial.move {
		t.Fatalf("the repeated MOVING did not complete the move: reader done %v, writer re-dial %+v", r.done, w.redial)
	}
}
