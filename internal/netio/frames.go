// Package netio provides the network transport that keeps
// process-network channels intact when program graphs are distributed
// across machines (§4 of the paper). Each node runs one Broker with a
// single TCP listener; every cross-node channel is carried by one
// framed virtual stream of the session its node shares with the peer
// (package mux), negotiated through rendezvous tokens. Links pump
// bytes between a node-local channel pipe and the connection, so
// processes always operate on ordinary local ports regardless of where
// their peers execute.
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

// Frame type bytes. DATA/EOF/REDIRECT/FENCE travel in the data
// direction (writer host → reader host); ACK/BYE/CLOSEREAD/MOVING
// travel in the control direction (reader host → writer host). HELLO
// opens every stream, and RESUME — once each way, receiver first —
// every connection of a link. DESIGN.md, "What heals: one link
// protocol", has the frame × direction × when table.
const (
	frameHello     = 'H' // token, brokerAddr — connection rendezvous
	frameData      = 'D' // payload — channel bytes
	frameEOF       = 'E' // writer closed; no more data
	frameRedirect  = 'R' // token — writer end moving; expect a new HELLO(token)
	frameCloseRead = 'C' // reader closed; poison the writer
	frameMoving    = 'M' // addr, token — reader end moving; reconnect there
	frameFence     = 'F' // data pauses here; resumes at the reader's new host
	frameAck       = 'A' // count — receiver consumed payload bytes (flow control)
	frameResume    = 'S' // off — receiver's delivered offset, then the sender's confirmation; opens every connection
	frameBye       = 'Y' // reader confirms EOF/REDIRECT receipt
	frameTrace     = 'T' // id — causal trace mark for the next DATA frame (sampled, best-effort)
	frameDataC     = 'Z' // payload — channel bytes, sealed as one compressed block (see token/blocks)
)

// maxFramePayload bounds frame payloads defensively.
const maxFramePayload = 1 << 26

// frameHdrLen is the encoded size of a DATA frame header (kind byte +
// uint32 payload length). Outbound chunk buffers reserve this much
// headroom so header and payload leave in a single write.
const frameHdrLen = 5

// ErrBadFrame reports a malformed or unexpected protocol frame. It is
// part of the consolidated sentinel set catalogued in
// internal/conduit/errs.go; compare with errors.Is.
var ErrBadFrame = errors.New("netio: malformed frame")

// frame is one decoded protocol frame.
type frame struct {
	kind    byte
	payload []byte // DATA; its length is the credit amount for ACK writes
	ack     int    // ACK — bytes consumed by the receiver
	off     uint64 // RESUME — receiver's delivered stream offset; TRACE — trace ID
	token   string // HELLO, REDIRECT, MOVING
	addr    string // HELLO (sender's broker), MOVING (new reader host)
}

// layout reports what follows kind's byte on the wire: a fixed field
// of width bytes (a u32 length or count, or a u64 offset), then strs
// length-prefixed strings. ok is false for an unknown kind.
func layout(kind byte) (width, strs int, ok bool) {
	switch kind {
	case frameData, frameDataC, frameAck:
		return 4, 0, true
	case frameResume, frameTrace:
		return 8, 0, true
	case frameEOF, frameCloseRead, frameFence, frameBye:
		return 0, 0, true
	case frameRedirect:
		return 0, 1, true
	case frameHello, frameMoving:
		return 0, 2, true
	}
	return 0, 0, false
}

// encodeFrame appends f's wire encoding — except a DATA payload, which
// follows separately — to dst and returns it.
func encodeFrame(dst []byte, f frame) ([]byte, error) {
	width, strs, ok := layout(f.kind)
	switch {
	case !ok:
		return nil, fmt.Errorf("%w: unknown frame kind %q", ErrBadFrame, f.kind)
	case len(f.payload) > maxFramePayload:
		return nil, fmt.Errorf("%w: payload %d exceeds %d", ErrBadFrame, len(f.payload), maxFramePayload)
	}
	dst = append(dst, f.kind)
	switch {
	case f.kind == frameAck:
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.ack))
	case width == 4:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.payload)))
	case width == 8:
		dst = binary.BigEndian.AppendUint64(dst, f.off)
	}
	if strs > 0 {
		dst = appendString(dst, f.token)
	}
	if strs > 1 {
		dst = appendString(dst, f.addr)
	}
	return dst, nil
}

// frameWriter encodes frames onto one connection. Control frames
// collect in buf until flush; a DATA frame goes out after them in one
// Write of its own (see data). The first error sticks: later writes do
// nothing and flush returns it, so a driver checks once per step.
type frameWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// frame stages control frame f; DATA goes through data.
func (e *frameWriter) frame(f frame) {
	if e.err == nil {
		e.buf, e.err = encodeFrame(e.buf, f)
	}
}

// data writes one DATA or DATA-C frame whose payload is
// full[frameHdrLen:]: the header lands in the reserved headroom before
// it, so header and payload leave in a single Write, with no copy.
func (e *frameWriter) data(kind byte, full []byte) error {
	if e.flush() != nil {
		return e.err
	}
	full[0] = kind
	binary.BigEndian.PutUint32(full[1:frameHdrLen], uint32(len(full)-frameHdrLen))
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

// frameReader decodes frames from one connection into a reusable
// scratch. A DATA payload that fits aliases buf[frameHdrLen:] and is
// valid until the next call, so a reader that consumes each frame
// before decoding the next allocates nothing per frame.
type frameReader struct {
	r   io.Reader
	buf []byte
}

func (d *frameReader) next() (frame, error) {
	if len(d.buf) < 9 {
		d.buf = make([]byte, 16)
	}
	if _, err := io.ReadFull(d.r, d.buf[:1]); err != nil {
		return frame{}, err
	}
	f := frame{kind: d.buf[0]}
	width, strs, ok := layout(f.kind)
	if !ok {
		return frame{}, ErrBadFrame
	}
	if _, err := io.ReadFull(d.r, d.buf[1:1+width]); err != nil {
		return frame{}, unexpected(err)
	}
	switch {
	case f.kind == frameAck:
		f.ack = int(binary.BigEndian.Uint32(d.buf[1:5]))
	case width == 8:
		f.off = binary.BigEndian.Uint64(d.buf[1:9])
	case width == 4:
		n := int(binary.BigEndian.Uint32(d.buf[1:5]))
		if n > maxFramePayload {
			return frame{}, ErrBadFrame
		}
		if f.payload = d.buf[frameHdrLen:]; n <= len(f.payload) {
			f.payload = f.payload[:n]
		} else {
			f.payload = make([]byte, n)
		}
		if _, err := io.ReadFull(d.r, f.payload); err != nil {
			return frame{}, unexpected(err)
		}
	}
	var err error
	if strs > 0 {
		f.token, err = readString(d.r)
	}
	if strs > 1 && err == nil {
		f.addr, err = readString(d.r)
	}
	return f, err
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func readString(r io.Reader) (string, error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return "", unexpected(err)
	}
	buf := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
	_, err := io.ReadFull(r, buf)
	return string(buf), unexpected(err)
}

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
