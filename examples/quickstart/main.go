// Quickstart: the Producer→Worker→Consumer pipeline of Figure 1,
// written against the public API from scratch.
//
// A process network is a set of processes connected by FIFO channels.
// Channels carry bytes; reads block until data arrives (Kahn's rule,
// which makes the computation determinate) and writes block while the
// buffer is full (which keeps scheduling fair). Each process runs in
// its own goroutine; when a process stops, its channels close and
// termination cascades through the graph.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"

	"dpn/internal/core"
)

// producer writes the integers 1..N to its output channel.
type producer struct {
	N   int64
	Out *core.WritePort
	i   int64
}

// Step is called repeatedly by the runtime (the paper's
// IterativeProcess.step). Returning io.EOF stops the process normally.
func (p *producer) Step(env *core.Env) error {
	if p.i >= p.N {
		return io.EOF
	}
	p.i++
	return p.Out.Tokens().WriteInt64(p.i)
}

// worker squares every element.
type worker struct {
	In  *core.ReadPort
	Out *core.WritePort
}

func (w *worker) Step(env *core.Env) error {
	v, err := w.In.Tokens().ReadInt64()
	if err != nil {
		return err // io.EOF after the producer finishes: normal stop
	}
	return w.Out.Tokens().WriteInt64(v * v)
}

// consumer prints what it receives.
type consumer struct {
	In *core.ReadPort
}

func (c *consumer) Step(env *core.Env) error {
	v, err := c.In.Tokens().ReadInt64()
	if err != nil {
		return err
	}
	fmt.Println(v)
	return nil
}

func main() {
	net := core.NewNetwork()

	// Two channels wire the three processes into a pipeline.
	pw := net.NewChannel("producer→worker", 0)
	wc := net.NewChannel("worker→consumer", 0)

	net.Spawn(&producer{N: 10, Out: pw.Writer()})
	net.Spawn(&worker{In: pw.Reader(), Out: wc.Writer()})
	net.Spawn(&consumer{In: wc.Reader()})

	// Wait blocks until the cascade of channel closings has stopped
	// every process.
	if err := net.Wait(); err != nil {
		log.Fatal(err)
	}
}
