package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"dpn/internal/stream"
)

// Transfer is the serialization session used when a process graph (or a
// piece of one) is encoded for shipment to another machine. Java Object
// Serialization gives each stream class a chance to replace itself via
// writeReplace/readResolve while carrying shared-reference identity;
// encoding/gob offers neither a per-encoder context nor reference
// sharing, so this session object supplies both. On the encoding side it
// assigns a small integer ID to every port reachable from the parcel; a
// port gob-encodes as just its ID. On the decoding side the importer
// first reconstructs a replacement port per ID (re-dialing network
// transports, rebuilding local pipes) and registers it here; a decoded
// port then rebinds itself to the replacement's state — the readResolve
// step.
//
// Because gob callbacks cannot receive arguments, the active transfer is
// installed in a package-level slot for the duration of the encode or
// decode; WithTransfer serializes sessions with a mutex. This is the
// documented "gob workaround" the Go port requires.
type Transfer struct {
	nextID uint32
	wIDs   map[*WritePort]uint32
	rIDs   map[*ReadPort]uint32

	wRepl map[uint32]*WritePort
	rRepl map[uint32]*ReadPort
}

// NewTransfer creates an empty session.
func NewTransfer() *Transfer {
	return &Transfer{
		wIDs:  make(map[*WritePort]uint32),
		rIDs:  make(map[*ReadPort]uint32),
		wRepl: make(map[uint32]*WritePort),
		rRepl: make(map[uint32]*ReadPort),
	}
}

// RegisterWrite assigns (or returns the existing) ID for a write port on
// the encoding side.
func (t *Transfer) RegisterWrite(p *WritePort) uint32 {
	if id, ok := t.wIDs[p]; ok {
		return id
	}
	t.nextID++
	t.wIDs[p] = t.nextID
	return t.nextID
}

// RegisterRead assigns (or returns the existing) ID for a read port on
// the encoding side.
func (t *Transfer) RegisterRead(p *ReadPort) uint32 {
	if id, ok := t.rIDs[p]; ok {
		return id
	}
	t.nextID++
	t.rIDs[p] = t.nextID
	return t.nextID
}

// ProvideWrite registers the replacement write port for id on the
// decoding side.
func (t *Transfer) ProvideWrite(id uint32, p *WritePort) { t.wRepl[id] = p }

// ProvideRead registers the replacement read port for id on the
// decoding side.
func (t *Transfer) ProvideRead(id uint32, p *ReadPort) { t.rRepl[id] = p }

var (
	transferMu  sync.Mutex
	curTransfer *Transfer
)

// WithTransfer installs t as the active session, runs f, and removes it.
// Only one transfer can be active at a time process-wide.
func WithTransfer(t *Transfer, f func() error) error {
	transferMu.Lock()
	defer transferMu.Unlock()
	curTransfer = t
	defer func() { curTransfer = nil }()
	return f()
}

// ErrNoTransfer is returned when a port is gob-encoded outside a
// transfer session.
var ErrNoTransfer = errors.New("core: port serialized outside a wire transfer session")

// GobEncode encodes the port as its session-assigned ID.
func (p *WritePort) GobEncode() ([]byte, error) {
	if curTransfer == nil {
		return nil, ErrNoTransfer
	}
	id, ok := curTransfer.wIDs[p]
	if !ok {
		return nil, fmt.Errorf("core: write port %s not registered with transfer", p.Name())
	}
	return binary.BigEndian.AppendUint32(nil, id), nil
}

// GobDecode rebinds the port to the replacement registered for its ID.
func (p *WritePort) GobDecode(b []byte) error {
	if curTransfer == nil {
		return ErrNoTransfer
	}
	if len(b) != 4 {
		return fmt.Errorf("core: corrupt write-port reference (%d bytes)", len(b))
	}
	id := binary.BigEndian.Uint32(b)
	repl, ok := curTransfer.wRepl[id]
	if !ok {
		return fmt.Errorf("core: no replacement write port for id %d", id)
	}
	p.s = repl.s
	return nil
}

// GobEncode encodes the port as its session-assigned ID.
func (p *ReadPort) GobEncode() ([]byte, error) {
	if curTransfer == nil {
		return nil, ErrNoTransfer
	}
	id, ok := curTransfer.rIDs[p]
	if !ok {
		return nil, fmt.Errorf("core: read port %s not registered with transfer", p.Name())
	}
	return binary.BigEndian.AppendUint32(nil, id), nil
}

// GobDecode rebinds the port to the replacement registered for its ID.
func (p *ReadPort) GobDecode(b []byte) error {
	if curTransfer == nil {
		return ErrNoTransfer
	}
	if len(b) != 4 {
		return fmt.Errorf("core: corrupt read-port reference (%d bytes)", len(b))
	}
	id := binary.BigEndian.Uint32(b)
	repl, ok := curTransfer.rRepl[id]
	if !ok {
		return fmt.Errorf("core: no replacement read port for id %d", id)
	}
	p.s = repl.s
	return nil
}

// AttachForeignRead builds a read port over the read end of a pipe that
// is not a channel of any network (a detached port's, for example).
func AttachForeignRead(name string, src *stream.Pipe) *ReadPort {
	return &ReadPort{s: &rstate{name: name, p: src}}
}

// AttachForeignWrite builds a write port over the write end of a pipe
// that is not a channel of any network.
func AttachForeignWrite(name string, dst *stream.Pipe) *WritePort {
	return &WritePort{s: &wstate{name: name, p: dst}}
}
