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

// encodeFrame appends f's wire encoding — except a DATA payload, which
// follows separately — to dst and returns it.
func encodeFrame(dst []byte, f frame) ([]byte, error) {
	dst = append(dst, f.kind)
	switch f.kind {
	case frameData, frameDataC:
		if len(f.payload) > maxFramePayload {
			return nil, fmt.Errorf("%w: payload %d exceeds %d", ErrBadFrame, len(f.payload), maxFramePayload)
		}
		return binary.BigEndian.AppendUint32(dst, uint32(len(f.payload))), nil
	case frameEOF, frameCloseRead, frameFence, frameBye:
		return dst, nil
	case frameAck:
		return binary.BigEndian.AppendUint32(dst, uint32(f.ack)), nil
	case frameResume, frameTrace:
		return binary.BigEndian.AppendUint64(dst, f.off), nil
	case frameRedirect:
		return appendString(dst, f.token), nil
	case frameHello, frameMoving:
		dst = appendString(dst, f.token)
		return appendString(dst, f.addr), nil
	default:
		return nil, fmt.Errorf("%w: unknown frame kind %q", ErrBadFrame, f.kind)
	}
}

// writeFrame encodes f onto w. Callers serialize writes per connection
// direction. Per-connection loops should prefer writeFrameBuf with a
// reusable scratch buffer (this convenience form allocates the header).
func writeFrame(w io.Writer, f frame) error {
	return writeFrameBuf(w, f, nil)
}

// writeFrameBuf is writeFrame with a caller-provided header scratch, so
// hot loops pay no per-frame header allocation. DATA frames issue two
// writes here; the outbound link's data path instead uses the chunk
// buffer's reserved headroom to leave in a single write.
func writeFrameBuf(w io.Writer, f frame, scratch []byte) error {
	hdr, err := encodeFrame(scratch[:0], f)
	if err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if (f.kind == frameData || f.kind == frameDataC) && len(f.payload) > 0 {
		_, err = w.Write(f.payload)
	}
	return err
}

// readFrame decodes one frame from r. Per-connection loops should
// prefer readFrameInto with a reusable scratch buffer.
func readFrame(r io.Reader) (frame, error) {
	return readFrameInto(r, nil)
}

// readFrameInto decodes one frame from r, using scratch for the fixed
// header fields and — when it fits — for the DATA payload, which then
// aliases scratch[frameHdrLen:]. A session loop that fully consumes
// each frame before reading the next (the inbound link writes the
// payload into the local pipe, which copies) therefore reads an entire
// stream with zero per-frame allocations.
func readFrameInto(r io.Reader, scratch []byte) (frame, error) {
	if len(scratch) < 9 {
		scratch = make([]byte, 16)
	}
	if _, err := io.ReadFull(r, scratch[:1]); err != nil {
		return frame{}, err
	}
	f := frame{kind: scratch[0]}
	switch f.kind {
	case frameData, frameDataC:
		if _, err := io.ReadFull(r, scratch[1:5]); err != nil {
			return frame{}, unexpected(err)
		}
		n := int(binary.BigEndian.Uint32(scratch[1:5]))
		if n > maxFramePayload {
			return frame{}, ErrBadFrame
		}
		if n <= len(scratch)-frameHdrLen {
			f.payload = scratch[frameHdrLen : frameHdrLen+n]
		} else {
			f.payload = make([]byte, n)
		}
		if _, err := io.ReadFull(r, f.payload); err != nil {
			return frame{}, unexpected(err)
		}
	case frameEOF, frameCloseRead, frameFence, frameBye:
	case frameAck:
		if _, err := io.ReadFull(r, scratch[1:5]); err != nil {
			return frame{}, unexpected(err)
		}
		f.ack = int(binary.BigEndian.Uint32(scratch[1:5]))
	case frameResume, frameTrace:
		if _, err := io.ReadFull(r, scratch[1:9]); err != nil {
			return frame{}, unexpected(err)
		}
		f.off = binary.BigEndian.Uint64(scratch[1:9])
	case frameRedirect:
		tok, err := readString(r)
		if err != nil {
			return frame{}, err
		}
		f.token = tok
	case frameHello, frameMoving:
		tok, err := readString(r)
		if err != nil {
			return frame{}, err
		}
		addr, err := readString(r)
		if err != nil {
			return frame{}, err
		}
		f.token, f.addr = tok, addr
	default:
		return frame{}, ErrBadFrame
	}
	return f, nil
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
	n := binary.BigEndian.Uint16(lenBuf[:])
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", unexpected(err)
	}
	return string(buf), nil
}

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
