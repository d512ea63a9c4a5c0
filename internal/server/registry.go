package server

import (
	"encoding/gob"
	"errors"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// regTimeoutNs bounds every registry exchange: the client's dial and
// request/response round trip, and the registry's wait for each request
// on a connection. Without it a registry that accepts and never answers
// hangs Register/Lookup/List forever, and a silent client pins a
// serveConn goroutine. Atomic so tests can compress it while registries
// from earlier tests still serve connections.
var regTimeoutNs atomic.Int64

func init() { regTimeoutNs.Store(int64(10 * time.Second)) }

func regTimeout() time.Duration { return time.Duration(regTimeoutNs.Load()) }

func setRegTimeout(d time.Duration) { regTimeoutNs.Store(int64(d)) }

// Registry is the RMI-registry analog: a name service mapping compute
// server names to their RPC addresses, so client applications can
// locate remote compute servers (§4.1).
type Registry struct {
	srv *listener

	mu      sync.Mutex
	entries map[string]string
}

type regRequest struct {
	Kind string // "register", "unregister", "lookup", "list"
	Name string
	Addr string
}

type regResponse struct {
	Err   string
	Addr  string
	Names []string
	Addrs []string
}

// NewRegistry starts a registry listening on addr.
func NewRegistry(addr string) (*Registry, error) {
	r := &Registry{entries: make(map[string]string)}
	var err error
	serve := func(c net.Conn) { serveGob(c, regTimeout, r.handle) }
	if r.srv, err = listen(addr, serve); err != nil {
		return nil, err
	}
	return r, nil
}

// Addr returns the registry's listen address.
func (r *Registry) Addr() string { return r.srv.addr() }

// Close stops the registry: it accepts no connection and answers no
// request after Close, on connections opened before it too.
func (r *Registry) Close() error { return r.srv.close() }

// Entries returns a snapshot of the registered servers.
func (r *Registry) Entries() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]string, len(r.entries))
	for k, v := range r.entries {
		out[k] = v
	}
	return out
}

// handle answers one request.
func (r *Registry) handle(req *regRequest) *regResponse {
	var resp regResponse
	switch req.Kind {
	case "register":
		r.mu.Lock()
		r.entries[req.Name] = req.Addr
		r.mu.Unlock()
	case "unregister":
		r.mu.Lock()
		delete(r.entries, req.Name)
		r.mu.Unlock()
	case "lookup":
		r.mu.Lock()
		addr, ok := r.entries[req.Name]
		r.mu.Unlock()
		if !ok {
			resp.Err = "registry: unknown server " + req.Name
		} else {
			resp.Addr = addr
		}
	case "list":
		// One lock hold for both slices: an unregister between
		// reading a name and its address would pair it with "".
		r.mu.Lock()
		for name := range r.entries {
			resp.Names = append(resp.Names, name)
		}
		sort.Strings(resp.Names)
		for _, name := range resp.Names {
			resp.Addrs = append(resp.Addrs, r.entries[name])
		}
		r.mu.Unlock()
	default:
		resp.Err = "registry: unknown request " + req.Kind
	}
	return &resp
}

func regRoundTrip(registryAddr string, req *regRequest) (*regResponse, error) {
	conn, err := net.DialTimeout("tcp", registryAddr, regTimeout())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(regTimeout()))
	if err := gob.NewEncoder(conn).Encode(req); err != nil {
		return nil, err
	}
	var resp regResponse
	if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return &resp, nil
}

// Register announces a compute server to the registry.
func Register(registryAddr, name, serverAddr string) error {
	_, err := regRoundTrip(registryAddr, &regRequest{Kind: "register", Name: name, Addr: serverAddr})
	return err
}

// Unregister removes a compute server from the registry.
func Unregister(registryAddr, name string) error {
	_, err := regRoundTrip(registryAddr, &regRequest{Kind: "unregister", Name: name})
	return err
}

// Lookup resolves a compute server name to its RPC address.
func Lookup(registryAddr, name string) (string, error) {
	resp, err := regRoundTrip(registryAddr, &regRequest{Kind: "lookup", Name: name})
	if err != nil {
		return "", err
	}
	return resp.Addr, nil
}

// List returns the registered server names and addresses.
func List(registryAddr string) (names, addrs []string, err error) {
	resp, err := regRoundTrip(registryAddr, &regRequest{Kind: "list"})
	if err != nil {
		return nil, nil, err
	}
	return resp.Names, resp.Addrs, nil
}
