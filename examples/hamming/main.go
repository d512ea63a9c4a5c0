// Hamming: the unbounded program graph of Figure 12, producing the
// ascending integers of the form 2^k·3^m·5^n. Every element the merge
// emits fans out into three Scale processes, so demand for channel
// storage grows without bound: with bounded buffers the graph
// eventually write-blocks into an artificial deadlock. A deadlock
// monitor (the bounded-scheduling procedure of §3.5/§6.2), woken by the
// network's quiescence when the last process blocks, detects the
// condition and grows the smallest full channel, and the computation
// proceeds.
//
// Run with a tiny -capacity to watch the monitor work.
//
//	go run ./examples/hamming [-n 30] [-capacity 32]
package main

import (
	"flag"
	"fmt"
	"log"

	"dpn/internal/core"
	"dpn/internal/deadlock"
	"dpn/internal/graphs"
)

func main() {
	n := flag.Int64("n", 30, "how many Hamming numbers to produce")
	capacity := flag.Int("capacity", 16, "initial channel capacity in bytes")
	flag.Parse()

	net := core.NewNetwork()
	sink := graphs.Hamming(net, *n, *capacity)

	mon := deadlock.New(net, 0)
	mon.OnEvent = func(e deadlock.Event) {
		if e.Status == deadlock.StatusResolved {
			fmt.Printf("-- artificial deadlock: grew channel %q to %d bytes\n", e.Channel, e.NewCap)
		}
	}
	mon.Start()
	defer mon.Stop()

	if err := net.Wait(); err != nil {
		log.Fatal(err)
	}
	for _, v := range sink.Values() {
		fmt.Println(v)
	}
	fmt.Printf("(%d artificial deadlocks resolved by buffer growth)\n", mon.Resolutions())
}
