package server

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestRegistryConcurrentClients races dozens of clients through
// register → lookup → list → unregister churn against one registry —
// the many-clients shape of §4.1. No registration may be lost while it
// is live (every lookup between a client's register and unregister must
// return exactly the registered address), list must never fail
// mid-churn and must pair every name it returns with its address, and
// the registry must drain to empty when every client
// has unregistered — each request is a short-lived connection, so FD
// use is bounded by the number of in-flight requests.
func TestRegistryConcurrentClients(t *testing.T) {
	reg, err := NewRegistry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	addr := reg.Addr()

	const (
		clients = 32
		names   = 12
		rounds  = 3
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fail := func(err error) {
				select {
				case errs <- err:
				default:
				}
			}
			for r := 0; r < rounds; r++ {
				for i := 0; i < names; i++ {
					name := fmt.Sprintf("c%d.s%d", c, i)
					want := fmt.Sprintf("10.0.%d.%d:9%d", c, i, r)
					if err := Register(addr, name, want); err != nil {
						fail(fmt.Errorf("register %s round %d: %w", name, r, err))
						return
					}
					got, err := Lookup(addr, name)
					if err != nil {
						fail(fmt.Errorf("lookup %s round %d: %w", name, r, err))
						return
					}
					if got != want {
						fail(fmt.Errorf("rendezvous lost: %s resolved to %q, want %q", name, got, want))
						return
					}
				}
				listed, addrs, err := List(addr)
				if err != nil {
					fail(fmt.Errorf("list round %d: %w", r, err))
					return
				}
				if empty := slices.Index(addrs, ""); len(listed) != len(addrs) || empty >= 0 {
					fail(fmt.Errorf("list round %d is not a snapshot: %d names, %d addrs, first empty address at %d",
						r, len(listed), len(addrs), empty))
					return
				}
				for i := 0; i < names; i++ {
					name := fmt.Sprintf("c%d.s%d", c, i)
					if err := Unregister(addr, name); err != nil {
						fail(fmt.Errorf("unregister %s round %d: %w", name, r, err))
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if left := reg.Entries(); len(left) != 0 {
		t.Fatalf("registry not drained after churn: %d entries remain: %v", len(left), left)
	}
}
