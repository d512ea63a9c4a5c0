// Package netio provides the network transport that keeps
// process-network channels intact when program graphs are distributed
// across machines (§4 of the paper). Each node runs one Broker with a
// single TCP listener and one authenticated session per peer broker
// (session.go); every cross-node channel is a stream of its pair's
// session, opened by the HELLO that carries its rendezvous token.
// Links pump bytes between a node-local channel pipe and their stream,
// so processes always operate on ordinary local ports regardless of
// where their peers execute.
//
// This file owns the wire format. After the session handshake
// (handshake.go) a connection carries one frame stream, every frame
//
//	[kind u8][stream u32][len u32][body: len bytes]
//
// where kind is a link frame kind below, whose body follows, or one of
// the session's own four (PING, GO, FIN, RST), whose body is empty. A
// link frame is never split across session frames, so one header per
// link frame is all the framing there is.
//
// The protocol also implements the paper's decentralized redirection
// (§4.3): when a channel end moves again, an in-band REDIRECT (writer
// moving) or MOVING (reader moving) frame tells the *other* end to
// rendezvous with the new host directly, so no traffic keeps flowing
// through the original node.
package netio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Link frame kinds. DATA/EOF/REDIRECT/FENCE travel in the data
// direction (writer host → reader host); ACK/BYE/CLOSEREAD/MOVING
// travel in the control direction (reader host → writer host). HELLO
// opens every stream, and RESUME — once each way, receiver first —
// every connection of a link. DESIGN.md, "What heals: one link
// protocol", has the frame × direction × when table.
const (
	frameHello     = 'H' // token, brokerAddr — opens a stream: connection rendezvous
	frameData      = 'D' // payload — channel bytes
	frameEOF       = 'E' // writer closed; no more data
	frameRedirect  = 'R' // token — writer end moving; expect a new HELLO(token)
	frameCloseRead = 'C' // reader closed; poison the writer
	frameMoving    = 'M' // addr, token — reader end moving; reconnect there
	frameFence     = 'F' // data pauses here; resumes at the reader's new host
	frameAck       = 'A' // count — receiver consumed payload bytes (flow control)
	frameResume    = 'S' // off, window — the receiver's delivered offset, then the sender's confirmation and credit window; opens every connection
	frameBye       = 'Y' // reader confirms EOF/REDIRECT receipt
	frameTrace     = 'T' // id — causal trace mark for the next DATA frame (sampled, best-effort)
	frameDataC     = 'Z' // payload — channel bytes, sealed as one compressed block (see token/blocks)
)

// Session frame kinds, disjoint from the link's.
const (
	kindPing = 'p' // keepalive
	kindGo   = 'g' // the session is closing
	kindFin  = 'f' // this end is done with the stream
	kindRst  = 'r' // no such stream here
)

// frameHdrLen is the frame header: kind, stream id, body length.
// Outbound chunk buffers reserve this much headroom so header and
// payload leave in a single write.
const frameHdrLen = 9

// FrameMax bounds a frame's body. It is the session's fairness quantum
// (a link with a large backlog yields the wire to its neighbours at
// least every FrameMax bytes) and the link's frame cap: a DATA payload
// is at most coalesceMax, which it equals.
const FrameMax = coalesceMax

// ctrlMax bounds the body of a frame that carries no channel bytes:
// strings are tokens and broker addresses.
const ctrlMax = 1 << 10

// ErrBadFrame reports a malformed or unexpected protocol frame. It is
// part of the consolidated sentinel set catalogued in
// internal/conduit/errs.go; compare with errors.Is.
var ErrBadFrame = errors.New("netio: malformed frame")

// frame is one decoded protocol frame.
type frame struct {
	kind    byte
	payload []byte // DATA; aliases the record it was decoded from
	ack     int    // ACK — bytes consumed by the receiver
	off     uint64 // RESUME — receiver's delivered stream offset; TRACE — trace ID
	window  int    // RESUME — the sender's credit window (0 from the receiver)
	token   string // HELLO, REDIRECT, MOVING
	addr    string // HELLO (sender's broker), MOVING (new reader host)
}

// layout reports a kind's body: a fixed part of width bytes, then strs
// length-prefixed strings; DATA kinds are the payload alone. ok is false
// for an unknown kind.
func layout(kind byte) (width, strs int, ok bool) {
	switch kind {
	case frameData, frameDataC, frameEOF, frameCloseRead, frameFence, frameBye,
		kindPing, kindGo, kindFin, kindRst:
		return 0, 0, true
	case frameAck:
		return 4, 0, true
	case frameTrace:
		return 8, 0, true
	case frameResume:
		return 12, 0, true
	case frameRedirect:
		return 0, 1, true
	case frameHello, frameMoving:
		return 0, 2, true
	}
	return 0, 0, false
}

func putHeader(b []byte, kind byte, id uint32, n int) {
	b[0] = kind
	binary.BigEndian.PutUint32(b[1:5], id)
	binary.BigEndian.PutUint32(b[5:9], uint32(n))
}

func parseHeader(b []byte) (kind byte, id uint32, n int) {
	return b[0], binary.BigEndian.Uint32(b[1:5]), int(binary.BigEndian.Uint32(b[5:9]))
}

// appendFrame appends f's encoding on stream id — except a DATA
// payload, which leaves from its chunk's headroom (frameWriter.data) —
// to dst and returns it.
func appendFrame(dst []byte, id uint32, f frame) ([]byte, error) {
	if _, _, ok := layout(f.kind); !ok || f.kind == frameData || f.kind == frameDataC {
		return nil, fmt.Errorf("%w: cannot stage frame kind %q", ErrBadFrame, f.kind)
	}
	at := len(dst)
	dst = append(dst, make([]byte, frameHdrLen)...)
	switch f.kind {
	case frameAck:
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.ack))
	case frameTrace:
		dst = binary.BigEndian.AppendUint64(dst, f.off)
	case frameResume:
		dst = binary.BigEndian.AppendUint64(dst, f.off)
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.window))
	case frameRedirect:
		dst = appendString(dst, f.token)
	case frameHello, frameMoving:
		dst = appendString(appendString(dst, f.token), f.addr)
	}
	putHeader(dst[at:], f.kind, id, len(dst)-at-frameHdrLen)
	return dst, nil
}

// decodeFrame decodes one whole frame, header included. A DATA payload
// aliases rec.
func decodeFrame(rec []byte) (frame, error) {
	kind, _, _ := parseHeader(rec)
	f, b := frame{kind: kind}, rec[frameHdrLen:]
	width, strs, ok := layout(kind)
	switch {
	case !ok:
		return frame{}, ErrBadFrame
	case kind == frameData || kind == frameDataC:
		f.payload = b
		return f, nil
	case len(b) < width:
		return frame{}, ErrBadFrame
	}
	switch kind {
	case frameAck:
		f.ack = int(binary.BigEndian.Uint32(b))
	case frameTrace:
		f.off = binary.BigEndian.Uint64(b)
	case frameResume:
		f.off, f.window = binary.BigEndian.Uint64(b), int(binary.BigEndian.Uint32(b[8:]))
	}
	b = b[width:]
	if strs > 0 {
		f.token, b, ok = cutString(b)
	}
	if strs > 1 && ok {
		f.addr, b, ok = cutString(b)
	}
	if !ok || len(b) > 0 {
		return frame{}, ErrBadFrame
	}
	return f, nil
}

// foldAck adds the count of ACK frame rec to ACK frame into.
func foldAck(into, rec []byte) {
	n := binary.BigEndian.Uint32(into[frameHdrLen:]) + binary.BigEndian.Uint32(rec[frameHdrLen:])
	binary.BigEndian.PutUint32(into[frameHdrLen:], n)
}

// frameWriter encodes one stream's frames onto its session. Control
// frames collect in buf until flush; a DATA frame goes out after them
// in one Write of its own (see data). The first error sticks: later
// writes do nothing and flush returns it, so a driver checks once per
// step.
type frameWriter struct {
	w   io.Writer
	id  uint32
	buf []byte
	err error
}

// frame stages control frame f; DATA goes through data.
func (e *frameWriter) frame(f frame) {
	if e.err == nil {
		e.buf, e.err = appendFrame(e.buf, e.id, f)
	}
}

// data writes one DATA or DATA-C frame whose payload is
// full[frameHdrLen:]: the header lands in the reserved headroom before
// it, so header and payload leave in a single Write, with no copy.
func (e *frameWriter) data(kind byte, full []byte) error {
	if e.flush() != nil {
		return e.err
	}
	putHeader(full, kind, e.id, len(full)-frameHdrLen)
	_, e.err = e.w.Write(full)
	return e.err
}

// flush writes the staged frames and returns the first error.
func (e *frameWriter) flush() error {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
	return e.err
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func cutString(b []byte) (string, []byte, bool) {
	if len(b) < 2 {
		return "", nil, false
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, false
	}
	return string(b[2 : 2+n]), b[2+n:], true
}
