// Migrate: live process migration — the future work of §6.1 of the
// paper ("making it possible to re-distribute processes after
// execution has already begun"), implemented.
//
// A pipeline runs on the local node: a paced source feeds a relay that
// feeds a sink. Mid-stream, the relay process is suspended at a step
// boundary, ejected from its goroutine with its channels left open,
// serialized, shipped to a freshly started compute server, and
// resumed there. Both of its channels now span the network; every
// element reaches the sink exactly once, in order — determinacy holds
// across the move.
//
//	go run ./examples/migrate [-n 500]
package main

import (
	"encoding/gob"
	"flag"
	"fmt"
	"log"
	"time"

	"dpn/internal/core"
	"dpn/internal/server"
	"dpn/internal/wire"
)

// Source emits consecutive integers at a steady pace.
type Source struct {
	core.Iterative
	Out  *core.WritePort
	Next int64
}

// Step implements core.Stepper.
func (s *Source) Step(env *core.Env) error {
	time.Sleep(200 * time.Microsecond)
	v := s.Next
	s.Next++
	return s.Out.Tokens().WriteInt64(v)
}

// Relay copies elements and counts them; Count is exported, so it
// survives migration (like a non-transient field under Java
// serialization).
type Relay struct {
	In    *core.ReadPort
	Out   *core.WritePort
	Count int64
}

// Step implements core.Stepper.
func (r *Relay) Step(env *core.Env) error {
	v, err := r.In.Tokens().ReadInt64()
	if err != nil {
		return err
	}
	if err := r.Out.Tokens().WriteInt64(v); err != nil {
		return err
	}
	r.Count++
	return nil
}

// Sink checks ordering as elements arrive.
type Sink struct {
	In   *core.ReadPort
	Want int64
}

// Step implements core.Stepper.
func (s *Sink) Step(env *core.Env) error {
	v, err := s.In.Tokens().ReadInt64()
	if err != nil {
		return err
	}
	if v != s.Want {
		return fmt.Errorf("out of order: got %d, want %d", v, s.Want)
	}
	s.Want++
	return nil
}

func init() {
	gob.Register(&Source{})
	gob.Register(&Relay{})
	gob.Register(&Sink{})
}

func main() {
	n := flag.Int64("n", 500, "elements to stream through the pipeline")
	flag.Parse()

	// The destination: a compute server (in-process here; dpnserver on
	// another machine in a real deployment).
	srv, err := server.New("destination", "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	cl, err := server.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	local, err := wire.NewLocalNode("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer local.Close()

	in := local.Net.NewChannel("in", 4096)
	out := local.Net.NewChannel("out", 4096)
	src := &Source{Out: in.Writer()}
	src.Iterations = *n
	relay := &Relay{In: in.Reader(), Out: out.Writer()}
	sink := &Sink{In: out.Reader()}

	local.Net.Spawn(src)
	relayHandle := local.Net.Spawn(relay)
	local.Net.Spawn(sink)

	// Let a quarter of the stream flow, then move the relay — live.
	for relay.Count < *n/4 {
		time.Sleep(time.Millisecond)
	}
	moved := relay.Count
	fmt.Printf("migrating the relay after %d elements...\n", moved)
	start := time.Now()
	if _, err := cl.Migrate(local, relayHandle); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("relay now runs on %q (migration took %v)\n", srv.Name(), time.Since(start))

	if err := local.Net.Wait(); err != nil {
		log.Fatal(err)
	}
	if err := srv.WaitIdle(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sink verified %d elements in order; %d crossed the network\n",
		sink.Want, *n-moved)
}
