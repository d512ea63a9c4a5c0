package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync/atomic"
	"time"
)

// EventType classifies one traced runtime event.
type EventType uint8

const (
	// EvRead is a token/byte read from a channel (Arg = bytes).
	EvRead EventType = iota
	// EvWrite is a token/byte write to a channel (Arg = bytes).
	EvWrite
	// EvBlock marks a goroutine blocking on a channel (Detail "read" or
	// "write").
	EvBlock
	// EvUnblock marks the blocked operation resuming (Arg = nanoseconds
	// spent blocked: measured if the pipe timed this park, else the
	// last measured park's, carried forward; a pipe times one park in
	// 16 per op). A reader who wants every park's exact length
	// subtracts the EvBlock event's timestamp from this one's.
	EvUnblock
	// EvGrow marks a channel capacity growth (Arg = new capacity).
	EvGrow
	// EvSpawn marks a process starting.
	EvSpawn
	// EvStop marks a process finishing (Detail carries the error, if
	// any).
	EvStop
	// EvReconfig marks a run-time graph reconfiguration (Detail
	// "splice-out" or "insert-upstream"; Name is the channel involved).
	EvReconfig
	// EvFrame marks one network protocol frame (Name is the frame kind,
	// Detail "out" or "in", Arg = payload bytes).
	EvFrame
	// EvMigrate marks one phase of a process migration (Detail
	// "suspend", "export", "import", or "redirect").
	EvMigrate
	// EvDeadlock marks a deadlock-monitor verdict (Detail is the
	// status; Name the grown channel, if any; Arg the new capacity).
	EvDeadlock
	// EvTask marks a meta-framework task passing one stage (Name is the
	// stage id, "worker:<tag>" for workers).
	EvTask
	// EvRPC marks one compute-server RPC (Name is the request kind).
	EvRPC
	// EvLink marks a network-link lifecycle event (Detail "retry",
	// "miss", "heal", or "fail").
	EvLink
	// EvSpan marks one hop of a sampled causal trace (Name is the
	// subject — channel or pool stage —, Detail the hop kind: "intake",
	// "dispatch", "wire-out", "wire-in", "result", or "emit"; Arg is the
	// trace ID). Matching wire-out/wire-in pairs are the causal conduit
	// edges the multi-node trace merge aligns clocks on.
	EvSpan
)

var evNames = [...]string{
	EvRead:     "read",
	EvWrite:    "write",
	EvBlock:    "block",
	EvUnblock:  "unblock",
	EvGrow:     "grow",
	EvSpawn:    "spawn",
	EvStop:     "stop",
	EvReconfig: "reconfig",
	EvFrame:    "frame",
	EvMigrate:  "migrate",
	EvDeadlock: "deadlock",
	EvTask:     "task",
	EvRPC:      "rpc",
	EvLink:     "link",
	EvSpan:     "span",
}

func (t EventType) String() string {
	if int(t) < len(evNames) {
		return evNames[t]
	}
	return "event"
}

// cat maps an event type to its Chrome trace category.
func (t EventType) cat() string {
	switch t {
	case EvRead, EvWrite, EvBlock, EvUnblock, EvGrow:
		return "channel"
	case EvSpawn, EvStop:
		return "process"
	case EvReconfig:
		return "reconfig"
	case EvFrame, EvMigrate, EvLink:
		return "net"
	case EvDeadlock:
		return "deadlock"
	case EvTask:
		return "meta"
	case EvRPC:
		return "rpc"
	case EvSpan:
		return "span"
	default:
		return "runtime"
	}
}

// Event is one traced occurrence.
type Event struct {
	TS     int64 // nanoseconds since the tracer's epoch
	Type   EventType
	Name   string // subject: channel, process, frame kind, …
	Detail string
	Arg    int64
}

// Tracer records typed events into a fixed-size ring buffer. Recording
// is lock-free: writers claim a slot with one atomic increment and
// publish the event through an atomic pointer, so tracing may be left
// wired into hot paths and enabled on demand; while disabled, Record is
// a single atomic load. The ring itself is allocated by the first
// Enable: every network owns a tracer, most never trace, and a ring of
// DefaultTraceSize pointers is 128 KiB a network would otherwise pay
// at creation.
type Tracer struct {
	enabled atomic.Bool
	epoch   time.Time
	size    int // ring capacity, a power of two
	ring    atomic.Pointer[[]atomic.Pointer[Event]]
	cursor  atomic.Uint64 // total events ever recorded
	// counts survive ring eviction: the ring keeps only the newest
	// events, but per-type totals stay exact for the whole run.
	counts [len(evNames)]atomic.Uint64
}

// DefaultTraceSize is the ring capacity used when NewTracer is given a
// non-positive size.
const DefaultTraceSize = 16384

// NewTracer returns a disabled tracer whose ring holds size events
// (rounded up to a power of two; non-positive selects
// DefaultTraceSize).
func NewTracer(size int) *Tracer {
	if size <= 0 {
		size = DefaultTraceSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Tracer{epoch: time.Now(), size: n}
}

// Enable turns recording on.
func (t *Tracer) Enable() {
	if t == nil {
		return
	}
	if t.ring.Load() == nil {
		slots := make([]atomic.Pointer[Event], t.size)
		t.ring.CompareAndSwap(nil, &slots)
	}
	t.enabled.Store(true)
}

// Disable turns recording off; the ring contents remain readable.
func (t *Tracer) Disable() {
	if t != nil {
		t.enabled.Store(false)
	}
}

// Record appends one event if the tracer is enabled. It is safe for
// concurrent use and on a nil tracer. It is small enough to inline, so
// a disabled tracer costs its caller a load and a branch, not a call.
func (t *Tracer) Record(typ EventType, name, detail string, arg int64) {
	if t != nil && t.enabled.Load() {
		t.record(typ, name, detail, arg)
	}
}

// record appends one event to an enabled tracer.
func (t *Tracer) record(typ EventType, name, detail string, arg int64) {
	ev := &Event{
		TS:     time.Since(t.epoch).Nanoseconds(),
		Type:   typ,
		Name:   name,
		Detail: detail,
		Arg:    arg,
	}
	if int(typ) < len(t.counts) {
		t.counts[typ].Add(1)
	}
	slots := *t.ring.Load()
	idx := t.cursor.Add(1) - 1
	slots[idx&uint64(len(slots)-1)].Store(ev)
}

// Count reports how many events of one type have ever been recorded,
// including ones the ring has since overwritten.
func (t *Tracer) Count(typ EventType) uint64 {
	if t == nil || int(typ) >= len(t.counts) {
		return 0
	}
	return t.counts[typ].Load()
}

// Events returns the ring contents, oldest first. With concurrent
// writers the snapshot is approximate at the ring edges; slots claimed
// but not yet published are skipped.
func (t *Tracer) Events() []Event {
	if t == nil || t.ring.Load() == nil {
		return nil // never enabled: nothing was ever recorded
	}
	slots := *t.ring.Load()
	total := t.cursor.Load()
	n := uint64(len(slots))
	start := uint64(0)
	if total > n {
		start = total - n
	}
	out := make([]Event, 0, total-start)
	for i := start; i < total; i++ {
		if ev := slots[i&(n-1)].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	return out
}

// traceEvent is one entry of the Chrome trace_event JSON format, as
// consumed by chrome://tracing and Perfetto. ID and BP serve the flow
// events ("s"/"f" phases) the multi-node merge uses for causal arrows.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// appendTraceEvents converts events into Chrome trace entries under the
// given pid, shifting timestamps by shift nanoseconds (the multi-node
// merge's clock alignment) and assigning one tid per distinct subject
// via tids. New subjects emit a thread_name metadata entry.
func appendTraceEvents(out []traceEvent, events []Event, pid int, shift int64, tids map[string]int) []traceEvent {
	for _, ev := range events {
		tid, ok := tids[ev.Name]
		if !ok {
			tid = len(tids) + 1
			tids[ev.Name] = tid
			out = append(out, traceEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": ev.Name},
			})
		}
		te := traceEvent{
			Name: ev.Type.String(),
			Cat:  ev.Type.cat(),
			Ph:   "i",
			S:    "t",
			TS:   float64(ev.TS+shift) / 1e3,
			PID:  pid,
			TID:  tid,
			Args: map[string]any{"subject": ev.Name, "arg": ev.Arg},
		}
		if ev.Detail != "" {
			te.Args["detail"] = ev.Detail
		}
		out = append(out, te)
	}
	return out
}

// writeTraceJSON writes the assembled entries as one Chrome trace_event
// JSON document.
func writeTraceJSON(w io.Writer, out []traceEvent) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":`); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	if err := enc.Encode(out); err != nil {
		return err
	}
	// Encoder appends a newline after the array; close the object after
	// it for readability.
	if _, err := bw.WriteString("}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteTrace exports the ring contents as Chrome trace_event JSON. Each
// distinct event subject (channel, process, …) becomes one named track,
// so per-channel and per-process timelines line up visually.
func (t *Tracer) WriteTrace(w io.Writer) error {
	events := t.Events()
	tids := make(map[string]int)
	out := appendTraceEvents(make([]traceEvent, 0, len(events)+8), events, 1, 0, tids)
	return writeTraceJSON(w, out)
}
