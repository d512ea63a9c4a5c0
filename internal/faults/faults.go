// Package faults is a deterministic fault-injection layer for the
// network transport: a seeded wrapper around net.Conn (and
// net.Listener) that injects latency, jitter, connection drops, short
// writes, and timed network partitions. The process-network runtime is
// supposed to be determinate — blocking reads guarantee the computed
// streams do not depend on scheduling or link timing (Kahn's theorem) —
// so a chaos harness can check distribution mechanics mechanically:
// perturb every link, diff the outputs against a fault-free run.
//
// All randomness flows from one seed, so a failing chaos run can be
// replayed by reusing the seed it logged. Injected errors carry
// ErrInjected (wrapped), letting tests distinguish injected faults from
// real ones.
//
// The injector models connection-level faults only. It never corrupts
// or silently discards bytes inside a live connection — TCP would not
// either. A "drop" kills the connection; a "short write" delivers a
// prefix and then kills the connection; a partition either resets every
// operation (mode "reset") or stalls it until the window ends or a
// deadline fires (mode "stall", which is what exercises heartbeats).
package faults

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

// ErrInjected is the cause wrapped into every injected failure.
var ErrInjected = errors.New("faults: injected failure")

// Config is one fault schedule. The zero value injects nothing.
type Config struct {
	// Seed seeds every random draw of the injector.
	Seed int64
	// Latency is the base delay added to every read and write.
	Latency time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter).
	Jitter time.Duration
	// Drop is the per-operation probability that the connection is
	// killed (subsequent operations fail with ErrInjected).
	Drop float64
	// ShortWrite is the per-write probability that only a prefix of the
	// buffer is written before the connection is killed.
	ShortWrite float64
	// PartitionAt schedules a partition to start this long after the
	// injector is created (zero means no scheduled partition).
	PartitionAt time.Duration
	// PartitionFor is the scheduled partition's duration; zero with
	// PartitionAt set means the partition never heals.
	PartitionFor time.Duration
	// PartitionEvery repeats the scheduled partition at this interval
	// (zero means it happens once). It requires a positive PartitionFor:
	// a partition that never heals has nothing to repeat, so
	// every-without-for is rejected by Parse and treated as a permanent
	// partition by the injector.
	PartitionEvery time.Duration
	// Stall selects partition mode "stall": operations block until the
	// partition ends or the connection's deadline fires, instead of
	// failing immediately. Dials fail immediately in both modes.
	Stall bool
	// Rate caps each connection's write throughput at this many bytes
	// per second (zero means unlimited), emulating a bandwidth-limited
	// wire: writes are paced so the bytes sent never outrun the
	// emulated link speed. Pacing is deterministic — it draws no
	// randomness — and applies per connection, like a dedicated NIC.
	Rate int64
}

// Injector applies one Config to any number of connections. All methods
// are safe for concurrent use and nil-safe: a nil *Injector wraps
// nothing and injects nothing.
type Injector struct {
	cfg   Config
	start time.Time

	mu  sync.Mutex
	rng *rand.Rand
	// manual partition window; see PartitionNow/Heal.
	manualUntil   time.Time
	manualForever bool

	injected int64 // faults injected so far (drops, short writes, partition hits)
}

// New returns an injector for the given schedule.
func New(cfg Config) *Injector {
	return &Injector{
		cfg:   cfg,
		start: time.Now(),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Seed reports the seed this injector draws from, for failure logs.
func (i *Injector) Seed() int64 {
	if i == nil {
		return 0
	}
	return i.cfg.Seed
}

// Injected reports how many faults have been injected so far.
func (i *Injector) Injected() int64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.injected
}

func (i *Injector) noteInjected() {
	i.mu.Lock()
	i.injected++
	i.mu.Unlock()
}

// PartitionNow starts a partition immediately. A non-positive duration
// partitions forever (until Heal).
func (i *Injector) PartitionNow(d time.Duration) {
	if i == nil {
		return
	}
	i.mu.Lock()
	if d <= 0 {
		i.manualForever = true
	} else {
		i.manualUntil = time.Now().Add(d)
	}
	i.mu.Unlock()
}

// Heal ends any manual partition started with PartitionNow. Scheduled
// partitions (PartitionAt) are not affected.
func (i *Injector) Heal() {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.manualForever = false
	i.manualUntil = time.Time{}
	i.mu.Unlock()
}

// Partitioned reports whether a partition (manual or scheduled) is
// active right now.
func (i *Injector) Partitioned() bool {
	return i != nil && i.partitionedAt(time.Now())
}

func (i *Injector) partitionedAt(now time.Time) bool {
	i.mu.Lock()
	manual := i.manualForever || now.Before(i.manualUntil)
	i.mu.Unlock()
	if manual {
		return true
	}
	if i.cfg.PartitionAt <= 0 {
		return false
	}
	since := now.Sub(i.start)
	if since < i.cfg.PartitionAt {
		return false
	}
	if i.cfg.PartitionFor <= 0 {
		// Permanent from onset; PartitionEvery is meaningless without a
		// healing window (Parse rejects that combination).
		return true
	}
	into := since - i.cfg.PartitionAt
	if i.cfg.PartitionEvery > 0 {
		into = into % i.cfg.PartitionEvery
	}
	return into < i.cfg.PartitionFor
}

// draw returns one uniform float in [0,1).
func (i *Injector) draw() float64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rng.Float64()
}

// jitter returns one random duration in [0, d).
func (i *Injector) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return time.Duration(i.rng.Int63n(int64(d)))
}

// DialError reports whether a dial attempted now must fail (the network
// is partitioned). It returns nil on a nil injector.
func (i *Injector) DialError() error {
	if i == nil {
		return nil
	}
	if i.Partitioned() {
		i.noteInjected()
		return &netError{op: "dial", err: ErrInjected, timeout: false}
	}
	return nil
}

// Conn wraps c with the injector's fault schedule. A nil injector
// returns c unchanged.
func (i *Injector) Conn(c net.Conn) net.Conn {
	if i == nil {
		return c
	}
	return &conn{Conn: c, inj: i}
}

// Listener wraps ln so every accepted connection is fault-wrapped.
func (i *Injector) Listener(ln net.Listener) net.Listener {
	if i == nil {
		return ln
	}
	return &listener{Listener: ln, inj: i}
}

type listener struct {
	net.Listener
	inj *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.inj.Conn(c), nil
}

// netError is the injected error type: it implements net.Error so
// callers treat injected faults like real network failures.
type netError struct {
	op      string
	err     error
	timeout bool
}

func (e *netError) Error() string   { return "faults: " + e.op + ": " + e.err.Error() }
func (e *netError) Unwrap() error   { return e.err }
func (e *netError) Timeout() bool   { return e.timeout }
func (e *netError) Temporary() bool { return false }

// conn is a fault-injecting net.Conn wrapper.
type conn struct {
	net.Conn
	inj *Injector

	mu            sync.Mutex
	broken        bool
	readDeadline  time.Time
	writeDeadline time.Time
	closed        chan struct{}
	closeOnce     sync.Once
	// busyUntil is the emulated wire's transmit horizon under
	// Config.Rate: each write extends it by len/Rate and sleeps until
	// its own bytes would have cleared the link.
	busyUntil time.Time
}

func (c *conn) closedCh() chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed == nil {
		c.closed = make(chan struct{})
	}
	return c.closed
}

func (c *conn) Close() error {
	ch := c.closedCh()
	c.closeOnce.Do(func() { close(ch) })
	return c.Conn.Close()
}

func (c *conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline, c.writeDeadline = t, t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *conn) breakConn(op string) error {
	c.mu.Lock()
	c.broken = true
	c.mu.Unlock()
	c.Conn.Close()
	c.inj.noteInjected()
	return &netError{op: op, err: ErrInjected}
}

// before applies latency and partition/drop faults ahead of one
// operation; deadline is the operation's configured deadline.
func (c *conn) before(op string, deadline time.Time) error {
	c.mu.Lock()
	broken := c.broken
	c.mu.Unlock()
	if broken {
		return &netError{op: op, err: ErrInjected}
	}
	if d := c.inj.cfg.Latency + c.inj.jitter(c.inj.cfg.Jitter); d > 0 {
		time.Sleep(d)
	}
	if c.inj.partitionedAt(time.Now()) {
		if !c.inj.cfg.Stall {
			return c.breakConn(op)
		}
		// Stall: block until the partition heals, the connection is
		// closed, or the operation's deadline passes — exactly like a
		// TCP connection whose peer stopped answering.
		c.inj.noteInjected()
		ch := c.closedCh()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ch:
				return &netError{op: op, err: net.ErrClosed}
			case <-tick.C:
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				return os.ErrDeadlineExceeded
			}
			if !c.inj.partitionedAt(time.Now()) {
				return nil
			}
		}
	}
	if c.inj.cfg.Drop > 0 && c.inj.draw() < c.inj.cfg.Drop {
		return c.breakConn(op)
	}
	return nil
}

func (c *conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	deadline := c.readDeadline
	c.mu.Unlock()
	if err := c.before("read", deadline); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	deadline := c.writeDeadline
	c.mu.Unlock()
	if err := c.before("write", deadline); err != nil {
		return 0, err
	}
	if c.inj.cfg.ShortWrite > 0 && len(p) > 1 && c.inj.draw() < c.inj.cfg.ShortWrite {
		// Deliver a prefix, then kill the connection: the peer sees a
		// torn frame followed by a reset, as with a mid-write crash.
		n := 1 + int(c.inj.draw()*float64(len(p)-1))
		wrote, err := c.Conn.Write(p[:n])
		// Charge the pacer only for bytes that actually left: the caller
		// retries the remainder (on a healed connection), and billing the
		// full request here would bill those bytes twice, undershooting
		// the configured rate.
		c.throttle(wrote)
		if err != nil {
			return wrote, err
		}
		return wrote, c.breakConn("write")
	}
	n, err := c.Conn.Write(p)
	c.throttle(n)
	return n, err
}

// throttle paces the connection after n bytes left it, so sustained
// throughput converges on Config.Rate. The serialization delay is
// charged against a per-connection transmit horizon: bursts shorter
// than the accumulated idle credit pass untouched, exactly like a real
// link that was sitting empty.
func (c *conn) throttle(n int) {
	rate := c.inj.cfg.Rate
	if rate <= 0 || n <= 0 {
		return
	}
	d := time.Duration(float64(n) / float64(rate) * float64(time.Second))
	c.mu.Lock()
	now := time.Now()
	if c.busyUntil.Before(now) {
		c.busyUntil = now
	}
	c.busyUntil = c.busyUntil.Add(d)
	wait := c.busyUntil.Sub(now)
	c.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}
