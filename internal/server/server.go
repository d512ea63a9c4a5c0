// Package server implements the paper's generic compute server (§4.1)
// and name registry. A compute server accepts serialized pieces of
// process-network program graphs (parcels) and spawns them, or runs a
// single Task synchronously and returns its result — the two remote
// methods of the paper's Server interface:
//
//	void run(Runnable target)  →  Kind "run"  (asynchronous parcel spawn)
//	Object run(Task target)    →  Kind "call" (synchronous task + result)
//
// Where the paper uses RMI and an RMI registry, this implementation
// uses a small gob-over-TCP protocol and a registry service mapping
// server names to addresses. Java's dynamic code download (the RMI
// codebase) has no Go equivalent: every node runs the same statically
// linked binary, and processes move as data with behaviour resolved by
// gob-registered types (see DESIGN.md, substitution 3).
package server

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dpn/internal/core"
	"dpn/internal/deadlock"
	"dpn/internal/meta"
	"dpn/internal/obs"
	"dpn/internal/wire"
)

// Request is one RPC request.
type Request struct {
	Kind     string // "ping", "info", "run", "call", "live", "errors", "dstatus", "grow", "trace"
	Parcel   *wire.Parcel
	TaskBlob []byte
	Channel  string // "grow": channel name
	NewCap   int    // "grow": requested capacity
}

// Response is one RPC response.
type Response struct {
	Err        string
	BrokerAddr string
	Name       string
	ResultBlob []byte
	Live       int64
	ProcNames  []string
	Status     *deadlock.NodeStatus
	GrownCap   int
	// Events carries the node's trace-ring snapshot ("trace"), used by
	// the multi-node Chrome-trace merge (obs.WriteMergedTrace).
	Events []obs.Event
}

// Server is a generic compute server: one process network, one broker,
// one RPC listener.
type Server struct {
	name string
	node *wire.Node
	rpc  *listener

	mu sync.Mutex
	// keepSpawned makes "run" requests remember the process values they
	// spawn, for in-process tests that read a remote result out of
	// shared memory. A serving node leaves it off: it must not hold on
	// to every process (and every channel buffer) it ever ran.
	keepSpawned bool
	spawned     []any
}

// New starts a compute server named name with an RPC listener on
// rpcAddr and a channel broker on brokerAddr (pass "127.0.0.1:0" to
// pick free ports).
func New(name, rpcAddr, brokerAddr string) (*Server, error) {
	node, err := wire.NewLocalNode(brokerAddr)
	if err != nil {
		return nil, err
	}
	node.Obs().Registry().Help("dpn_server_rpcs_total",
		"Compute-server RPC requests handled, by kind.")
	s := &Server{name: name, node: node}
	serve := func(c net.Conn) { serveGob(c, nil, s.handle) }
	if s.rpc, err = listen(rpcAddr, serve); err != nil {
		node.Close()
		return nil, err
	}
	return s, nil
}

// Name returns the server's registry name.
func (s *Server) Name() string { return s.name }

// Addr returns the RPC address clients dial.
func (s *Server) Addr() string { return s.rpc.addr() }

// BrokerAddr returns the channel broker's address.
func (s *Server) BrokerAddr() string { return s.node.Broker.Addr() }

// Node exposes the server's node for tests and embedded use.
func (s *Server) Node() *wire.Node { return s.node }

// WaitIdle blocks until every process spawned on this server has
// finished.
func (s *Server) WaitIdle() error { return s.node.Net.Wait() }

// spawnedBodies returns the process values spawned via "run" requests
// since keepSpawned was set.
func (s *Server) spawnedBodies() []any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]any(nil), s.spawned...)
}

// Close stops the RPC listener, its connections and the broker.
// Running processes are not interrupted (they stop through channel
// termination, §3.4).
func (s *Server) Close() error {
	err := s.rpc.close()
	s.node.Close()
	return err
}

// listener is an accept loop with the set of connections it serves:
// after close, it accepts nothing and every connection is closed, so
// no request is read or answered.
type listener struct {
	ln    net.Listener
	mu    sync.Mutex
	conns map[net.Conn]struct{} // nil once closed
}

// listen starts a listener on addr that runs serve on each accepted
// connection, and closes the connection when serve returns.
func listen(addr string, serve func(net.Conn)) (*listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &listener{ln: ln, conns: make(map[net.Conn]struct{})}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil || !l.hold(conn) {
				return
			}
			go func() {
				defer l.drop(conn)
				serve(conn)
			}()
		}
	}()
	return l, nil
}

func (l *listener) addr() string { return l.ln.Addr().String() }

// hold adds conn to the set, or closes it if the listener is closed.
func (l *listener) hold(conn net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conns == nil {
		conn.Close()
		return false
	}
	l.conns[conn] = struct{}{}
	return true
}

func (l *listener) drop(conn net.Conn) {
	conn.Close()
	l.mu.Lock()
	delete(l.conns, conn)
	l.mu.Unlock()
}

// close stops accepting and closes every connection. Closing twice is
// a no-op.
func (l *listener) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conns == nil {
		return nil
	}
	for c := range l.conns {
		c.Close()
	}
	l.conns = nil
	return l.ln.Close()
}

// serveGob answers each gob-encoded request on conn with handle's
// response until the connection fails. A non-nil timeout bounds each
// wait for a request and its reply.
func serveGob[Req, Resp any](conn net.Conn, timeout func() time.Duration, handle func(*Req) *Resp) {
	dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
	for {
		if timeout != nil {
			conn.SetDeadline(time.Now().Add(timeout()))
		}
		var req Req
		if dec.Decode(&req) != nil || enc.Encode(handle(&req)) != nil {
			return
		}
	}
}

func (s *Server) handle(req *Request) *Response {
	scope := s.node.Obs()
	scope.Registry().Counter("dpn_server_rpcs_total", obs.L("kind", req.Kind)).Inc()
	scope.Record(obs.EvRPC, req.Kind, "", 0)
	switch req.Kind {
	case "trace":
		return &Response{Events: s.node.TraceEvents()}
	case "ping":
		return &Response{Name: s.name}
	case "info":
		return &Response{Name: s.name, BrokerAddr: s.BrokerAddr()}
	case "live":
		return &Response{Live: s.node.Net.Live()}
	case "errors":
		var msgs []string
		for _, err := range s.node.Net.Errors() {
			msgs = append(msgs, err.Error())
		}
		return &Response{ProcNames: msgs}
	case "dstatus":
		st, err := s.node.DeadlockStatus()
		if err != nil {
			return &Response{Err: err.Error()}
		}
		return &Response{Status: &st}
	case "grow":
		got, err := s.node.GrowChannel(req.Channel, req.NewCap)
		if err != nil {
			return &Response{Err: err.Error()}
		}
		return &Response{GrownCap: got}
	case "run":
		if req.Parcel == nil {
			return &Response{Err: "run: missing parcel"}
		}
		procs, err := wire.SpawnImported(s.node, req.Parcel)
		if err != nil {
			return &Response{Err: err.Error()}
		}
		names := make([]string, len(procs))
		s.mu.Lock()
		for i, p := range procs {
			names[i] = p.Name()
			if s.keepSpawned {
				s.spawned = append(s.spawned, p.Body())
			}
		}
		s.mu.Unlock()
		return &Response{ProcNames: names}
	case "call":
		task, err := decodeTask(req.TaskBlob)
		if err != nil {
			return &Response{Err: err.Error()}
		}
		result, err := task.Run()
		if err != nil {
			return &Response{Err: err.Error()}
		}
		blob, err := encodeTask(result)
		if err != nil {
			return &Response{Err: err.Error()}
		}
		return &Response{ResultBlob: blob}
	default:
		return &Response{Err: fmt.Sprintf("unknown request kind %q", req.Kind)}
	}
}

func encodeTask(t meta.Task) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&t); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeTask(blob []byte) (meta.Task, error) {
	var t meta.Task
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&t); err != nil {
		return nil, err
	}
	if t == nil {
		return nil, errors.New("server: nil task")
	}
	return t, nil
}

// Client talks to one compute server over a persistent connection.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder

	brokerAddr string // cached by BrokerAddr, under mu
}

// Dial connects to the compute server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.exchange(req)
}

// exchange sends one request and reads its response, with c.mu held.
func (c *Client) exchange(req *Request) (*Response, error) {
	if err := c.enc.Encode(req); err != nil {
		return nil, err
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return &resp, nil
}

// Ping checks liveness and returns the server's name.
func (c *Client) Ping() (string, error) {
	resp, err := c.roundTrip(&Request{Kind: "ping"})
	if err != nil {
		return "", err
	}
	return resp.Name, nil
}

// BrokerAddr returns (and caches) the server's channel broker address.
func (c *Client) BrokerAddr() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.brokerAddr == "" {
		resp, err := c.exchange(&Request{Kind: "info"})
		if err != nil {
			return "", err
		}
		c.brokerAddr = resp.BrokerAddr
	}
	return c.brokerAddr, nil
}

// Live reports how many processes are currently executing remotely.
func (c *Client) Live() (int64, error) {
	resp, err := c.roundTrip(&Request{Kind: "live"})
	if err != nil {
		return 0, err
	}
	return resp.Live, nil
}

// Errors returns the failure messages of processes that have failed on
// the server so far (process crashes stay on the server in the paper's
// design; this call makes them observable to clients).
func (c *Client) Errors() ([]string, error) {
	resp, err := c.roundTrip(&Request{Kind: "errors"})
	if err != nil {
		return nil, err
	}
	return resp.ProcNames, nil
}

// RunParcel ships a pre-exported parcel and spawns it remotely,
// returning the spawned process names. Like the paper's
// run(Runnable), it does not wait for the processes to finish.
func (c *Client) RunParcel(p *wire.Parcel) ([]string, error) {
	resp, err := c.roundTrip(&Request{Kind: "run", Parcel: p})
	if err != nil {
		return nil, err
	}
	return resp.ProcNames, nil
}

// RunProcs exports procs from the local node and spawns them on the
// remote server, automatically reconnecting every boundary channel
// (§4.2). The procs must not have been spawned locally.
func (c *Client) RunProcs(local *wire.Node, procs ...any) ([]string, error) {
	brokerAddr, err := c.BrokerAddr()
	if err != nil {
		return nil, err
	}
	parcel, err := wire.Export(local, brokerAddr, procs...)
	if err != nil {
		return nil, err
	}
	return c.RunParcel(parcel)
}

// Call runs a single task on the server synchronously and returns its
// result — the paper's Object run(Task) method.
func (c *Client) Call(t meta.Task) (meta.Task, error) {
	blob, err := encodeTask(t)
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(&Request{Kind: "call", TaskBlob: blob})
	if err != nil {
		return nil, err
	}
	return decodeTask(resp.ResultBlob)
}

// Spawn is a helper that runs a Runnable-style process remotely with no
// channels — the paper's simplest use of a compute server.
func (c *Client) Spawn(local *wire.Node, p any) error {
	_, err := c.RunProcs(local, p)
	return err
}

func init() {
	gob.Register(&wire.Parcel{})
}

// Migrate moves a running process from the local node to this server
// (§6.1 of the paper, implemented): suspend at a step boundary, eject,
// export, ship, and respawn remotely. It returns the remote process
// names.
func (c *Client) Migrate(local *wire.Node, proc *core.Proc) ([]string, error) {
	brokerAddr, err := c.BrokerAddr()
	if err != nil {
		return nil, err
	}
	parcel, err := wire.Migrate(local, brokerAddr, proc)
	if err != nil {
		return nil, err
	}
	return c.RunParcel(parcel)
}

// DeadlockStatus implements deadlock.Peer over the RPC, letting a
// deadlock monitor on one machine watch compute servers on others
// (§6.2).
func (c *Client) DeadlockStatus() (deadlock.NodeStatus, error) {
	resp, err := c.roundTrip(&Request{Kind: "dstatus"})
	if err != nil {
		return deadlock.NodeStatus{}, err
	}
	if resp.Status == nil {
		return deadlock.NodeStatus{}, errors.New("server: missing status")
	}
	return *resp.Status, nil
}

// GrowChannel implements deadlock.Peer over the RPC.
func (c *Client) GrowChannel(name string, newCap int) (int, error) {
	resp, err := c.roundTrip(&Request{Kind: "grow", Channel: name, NewCap: newCap})
	if err != nil {
		return 0, err
	}
	return resp.GrownCap, nil
}

// TraceEvents returns a snapshot of the remote node's trace ring. A
// driver collects one snapshot per node — its own via Node.TraceEvents,
// each server's via this call — and hands the set to
// obs.WriteMergedTrace, which aligns the per-node clocks on the causal
// wire-out → wire-in span pairs of sampled conduit traffic.
func (c *Client) TraceEvents() ([]obs.Event, error) {
	resp, err := c.roundTrip(&Request{Kind: "trace"})
	if err != nil {
		return nil, err
	}
	return resp.Events, nil
}
