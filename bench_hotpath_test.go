// Hot-path micro-suite: the channel/link substrate benchmarks recorded
// into the BENCH_*.json trajectory (see EXPERIMENTS.md). These isolate
// the three layers of the data plane — stream.Pipe, the token codec,
// and the netio link — so regressions in per-element cost, wakeups, or
// allocations are caught by scripts/check.sh -bench before they reach
// the paper-scale experiments.
//
// Regenerate the trajectory with scripts/bench.sh; compare against the
// committed BENCH_seed.json (pre-overhaul) and BENCH_pr3.json.
package dpn_test

import (
	"fmt"
	"testing"

	"dpn/internal/core"
	"dpn/internal/faults"
	"dpn/internal/obs"
	"dpn/internal/stream"
	"dpn/internal/token"
	"dpn/internal/wire"
)

// drainPipe empties p from the same goroutine (no blocking: data is
// present whenever it is called).
func drainPipe(p *stream.Pipe, buf []byte) {
	for p.Len() > 0 {
		if _, err := p.Read(buf); err != nil {
			return
		}
	}
}

// BenchmarkPipeWrite measures the uncontended write path: one
// goroutine fills the pipe and drains it inline, so the cost is pure
// lock/copy/wake bookkeeping with no scheduler handoff.
func BenchmarkPipeWrite(b *testing.B) {
	const capacity = 1 << 16
	for _, size := range []int{8, 4096} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			p := stream.NewPipe(capacity)
			chunk := make([]byte, size)
			drain := make([]byte, capacity)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p.Len()+size > capacity {
					drainPipe(p, drain)
				}
				if _, err := p.Write(chunk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipeTransfer measures a producer/consumer pair moving bytes
// through one pipe — the scheduler-handoff-dominated regime where
// wake-avoidance matters.
func BenchmarkPipeTransfer(b *testing.B) {
	for _, size := range []int{8, 4096} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			p := stream.NewPipe(1 << 16)
			chunk := make([]byte, size)
			go func() {
				buf := make([]byte, 1<<15)
				for {
					if _, err := p.Read(buf); err != nil {
						return
					}
				}
			}()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Write(chunk); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			p.CloseWrite()
			p.CloseRead()
		})
	}
}

// BenchmarkPipeInstrumented is the contention ablation for the
// observability hooks: the same transfer as BenchmarkPipeTransfer but
// through a network-registered channel, so every operation also feeds
// the metrics registry and the deadlock monitor's generation counter.
func BenchmarkPipeInstrumented(b *testing.B) {
	for _, size := range []int{8, 4096} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			n := core.NewNetwork()
			ch := n.NewChannel("bench", 1<<16)
			p := ch.Pipe()
			chunk := make([]byte, size)
			go func() {
				buf := make([]byte, 1<<15)
				for {
					if _, err := p.Read(buf); err != nil {
						return
					}
				}
			}()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Write(chunk); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			p.CloseWrite()
			p.CloseRead()
		})
	}
}

// BenchmarkTokenWriteInt64 measures the per-element token write path
// (header-free fixed-width element straight into the pipe). Its
// allocs/op is gated by scripts/check.sh -bench: the element hot path
// must stay allocation-free.
func BenchmarkTokenWriteInt64(b *testing.B) {
	const capacity = 1 << 16
	p := stream.NewPipe(capacity)
	w := token.NewWriter(p)
	drain := make([]byte, capacity)
	b.SetBytes(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.Len()+8 > capacity {
			drainPipe(p, drain)
		}
		if err := w.WriteInt64(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTokenWriteBlock measures length-prefixed block writes (the
// header+payload element path) with an inline drain.
func BenchmarkTokenWriteBlock(b *testing.B) {
	const capacity = 1 << 18
	for _, size := range []int{64, 1024} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			p := stream.NewPipe(capacity)
			w := token.NewWriter(p)
			block := make([]byte, size)
			drain := make([]byte, capacity)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p.Len()+size+4 > capacity {
					drainPipe(p, drain)
				}
				if err := w.WriteBlock(block); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTokenInt64Stream is the element-stream workload: one
// producer and one consumer moving a stream of int64 elements through
// a full channel (port + sequence reader + pipe). This is the
// benchmark the ≥2x acceptance criterion of the hot-path overhaul is
// measured on.
func BenchmarkTokenInt64Stream(b *testing.B) {
	ch := core.NewChannel("bench", 1<<14)
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := token.NewReader(ch.Reader())
		for {
			if _, err := r.ReadInt64(); err != nil {
				return
			}
		}
	}()
	w := token.NewWriter(ch.Writer())
	b.SetBytes(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteInt64(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ch.Writer().Close()
	<-done
	ch.Reader().Close()
}

// BenchmarkTokenInt64StreamBatch is the same element-stream workload
// driven through the batch APIs (WriteInt64s/ReadInt64s): runs of
// elements are staged into single pipe writes and already-buffered
// bytes drain in single reads, so the per-token lock/wake cost is
// amortized across the run. Compare against BenchmarkTokenInt64Stream
// to see what batching buys; semantics (element order, blocking-read
// determinacy) are identical.
func BenchmarkTokenInt64StreamBatch(b *testing.B) {
	const run = 512
	ch := core.NewChannel("bench", 1<<14)
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := token.NewReader(ch.Reader())
		dst := make([]int64, run)
		for {
			if _, err := r.ReadInt64s(dst); err != nil {
				return
			}
		}
	}()
	w := token.NewWriter(ch.Writer())
	vs := make([]int64, run)
	for i := range vs {
		vs[i] = int64(i)
	}
	b.SetBytes(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += run {
		k := run
		if b.N-i < k {
			k = b.N - i
		}
		if err := w.WriteInt64s(vs[:k]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ch.Writer().Close()
	<-done
	ch.Reader().Close()
}

// BenchmarkTokenObjectRoundTrip measures the gob element path
// (WriteObject immediately decoded by ReadObject), the per-task
// serialization cost of the meta framework.
func BenchmarkTokenObjectRoundTrip(b *testing.B) {
	type payload struct {
		A, B int64
		Name string
	}
	p := stream.NewPipe(1 << 16)
	w := token.NewWriter(p)
	r := token.NewReader(p)
	in := payload{A: 1, B: 2, Name: "task"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteObject(&in); err != nil {
			b.Fatal(err)
		}
		var out payload
		if err := r.ReadObject(&out); err != nil {
			b.Fatal(err)
		}
	}
}

// linkBench pumps b.N writes of size bytes through a loopback broker
// link and waits for full delivery, so per-op cost includes framing,
// flow control, and both pipe ends. Its allocs/op is gated by
// scripts/check.sh -bench (buffer pooling on the link path).
func linkBench(b *testing.B, size int) {
	a, err := wire.NewLocalNode("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	c, err := wire.NewLocalNode("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	src := stream.NewPipe(1 << 16)
	dst := stream.NewPipe(1 << 16)
	tok := a.Broker.NewToken()
	if _, err := a.Broker.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
		b.Fatal(err)
	}
	h, err := c.Broker.DialInbound(a.Broker.Addr(), tok, dst.WriteEnd())
	if err != nil {
		b.Fatal(err)
	}
	if err := h.WaitReady(); err != nil {
		b.Fatal(err)
	}
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		buf := make([]byte, 1<<15)
		for {
			if _, err := dst.Read(buf); err != nil {
				return
			}
		}
	}()
	payload := make([]byte, size)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	src.CloseWrite()
	<-consumed
	dst.CloseRead()
}

// BenchmarkLinkThroughput measures bulk transfer over a loopback
// network link in 32 KiB writes.
func BenchmarkLinkThroughput(b *testing.B) { linkBench(b, 32*1024) }

// BenchmarkLinkSmallWrites measures the link under a stream of small
// writes — the regime where per-frame overhead dominates and outbound
// frame coalescing pays off.
func BenchmarkLinkSmallWrites(b *testing.B) { linkBench(b, 256) }

// linkTokensBench pumps b.N int64 tokens through a TCP link via the
// batch token APIs (WriteInt64s feeding the columnar compression trial
// at the link boundary, ReadInt64s draining the far side) and reports
// logical token throughput plus the achieved wire ratio ("xratio",
// logical bytes over wire bytes — 1.0 means the raw fallback shipped
// everything). This is the BENCH_pr8.json trajectory (scripts/bench.sh
// -pr8); the default suite skips it so BENCH_pr3/pr6 stay comparable.
//
// A non-zero rate paces the sender's wire at that many bytes/sec
// through the deterministic faults layer, emulating the paper's §5
// setting where the NIC — not the CPU — is the ceiling: there the raw
// twin is pinned at rate/8 tokens/sec (the PR 3 wire protocol's
// ceiling on that link) while the compressed run is bounded only by
// how few bytes each logical token needs.
func linkTokensBench(b *testing.B, comp bool, rate int64, fill func(vs []int64, base int)) {
	a, err := wire.NewLocalNode("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	a.Broker.SetCompression(comp)
	if rate > 0 {
		a.Broker.SetFaults(faults.New(faults.Config{Rate: rate}))
	}
	c, err := wire.NewLocalNode("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	src := stream.NewPipe(1 << 18)
	dst := stream.NewPipe(1 << 18)
	tok := a.Broker.NewToken()
	if _, err := a.Broker.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
		b.Fatal(err)
	}
	h, err := c.Broker.DialInbound(a.Broker.Addr(), tok, dst.WriteEnd())
	if err != nil {
		b.Fatal(err)
	}
	if err := h.WaitReady(); err != nil {
		b.Fatal(err)
	}
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		r := token.NewReader(dst.ReadEnd())
		vs := make([]int64, 4096)
		for {
			if _, err := r.ReadInt64s(vs); err != nil {
				return
			}
		}
	}()
	const run = 4096
	w := token.NewWriter(src.WriteEnd())
	vs := make([]int64, run)
	b.SetBytes(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += run {
		k := run
		if b.N-i < k {
			k = b.N - i
		}
		fill(vs[:k], i)
		if err := w.WriteInt64s(vs[:k]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	src.CloseWrite()
	<-consumed
	dst.CloseRead()
	reg := a.Obs().Registry()
	logical := reg.Counter("dpn_conduit_link_logical_bytes_total", obs.L("dir", "out")).Value()
	wireBytes := reg.Counter("dpn_conduit_link_wire_bytes_total", obs.L("dir", "out")).Value()
	if wireBytes > 0 {
		b.ReportMetric(float64(logical)/float64(wireBytes), "xratio")
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "tokens/s")
	}
}

// fillMonotone is the best case for the delta codec: a strictly
// increasing counter stream (timestamps, sequence numbers).
func fillMonotone(vs []int64, base int) {
	for i := range vs {
		vs[i] = int64(base+i) * 7
	}
}

// fillRandom is the worst case: full-width random words the trial must
// refuse, exercising the raw fallback under benchmark load.
func fillRandom(vs []int64, base int) {
	x := uint64(base)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for i := range vs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vs[i] = int64(x)
	}
}

// BenchmarkLinkTokensMonotone: compressed monotone int64 stream over
// an unthrottled loopback link (CPU-bound regime).
func BenchmarkLinkTokensMonotone(b *testing.B) { linkTokensBench(b, true, 0, fillMonotone) }

// BenchmarkLinkTokensMonotoneRaw is the compression-off twin of
// Monotone: same stream, plain DATA frames, the pre-PR8 wire.
func BenchmarkLinkTokensMonotoneRaw(b *testing.B) { linkTokensBench(b, false, 0, fillMonotone) }

// BenchmarkLinkTokensRandom: incompressible stream through the enabled
// trial — bounds the cost of trying and refusing every chunk.
func BenchmarkLinkTokensRandom(b *testing.B) { linkTokensBench(b, true, 0, fillRandom) }

// wireRate is the emulated NIC for the wire-bound twins: 1 Gbit/s
// (125 MB/s), the fast-Ethernet-successor class of link the source
// paper's §5 experiments ran against.
const wireRate = 125_000_000

// BenchmarkLinkTokensWireMonotone: compressed monotone int64 stream
// over the emulated 1 Gbit/s wire — the logical tokens/sec ceiling the
// ≥3x BENCH_pr8 acceptance criterion is measured on.
func BenchmarkLinkTokensWireMonotone(b *testing.B) {
	linkTokensBench(b, true, wireRate, fillMonotone)
}

// BenchmarkLinkTokensWireMonotoneRaw is the same stream on the same
// emulated wire with compression off: the BENCH_pr3 raw-wire
// equivalent, pinned at wire-rate/8 tokens/sec.
func BenchmarkLinkTokensWireMonotoneRaw(b *testing.B) {
	linkTokensBench(b, false, wireRate, fillMonotone)
}

// BenchmarkLinkTokensFloatWalk pushes a smooth float64 walk (the XOR
// codec's target shape) through the compressed link via WriteFloat64s.
func BenchmarkLinkTokensFloatWalk(b *testing.B) {
	a, err := wire.NewLocalNode("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	c, err := wire.NewLocalNode("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	src := stream.NewPipe(1 << 18)
	dst := stream.NewPipe(1 << 18)
	tok := a.Broker.NewToken()
	if _, err := a.Broker.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
		b.Fatal(err)
	}
	h, err := c.Broker.DialInbound(a.Broker.Addr(), tok, dst.WriteEnd())
	if err != nil {
		b.Fatal(err)
	}
	if err := h.WaitReady(); err != nil {
		b.Fatal(err)
	}
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		r := token.NewReader(dst.ReadEnd())
		vs := make([]float64, 4096)
		for {
			if _, err := r.ReadFloat64s(vs); err != nil {
				return
			}
		}
	}()
	const run = 4096
	w := token.NewWriter(src.WriteEnd())
	vs := make([]float64, run)
	b.SetBytes(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += run {
		k := run
		if b.N-i < k {
			k = b.N - i
		}
		for j := 0; j < k; j++ {
			vs[j] = float64(i+j) * 0.25
		}
		if err := w.WriteFloat64s(vs[:k]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	src.CloseWrite()
	<-consumed
	dst.CloseRead()
	reg := a.Obs().Registry()
	logical := reg.Counter("dpn_conduit_link_logical_bytes_total", obs.L("dir", "out")).Value()
	wireBytes := reg.Counter("dpn_conduit_link_wire_bytes_total", obs.L("dir", "out")).Value()
	if wireBytes > 0 {
		b.ReportMetric(float64(logical)/float64(wireBytes), "xratio")
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "tokens/s")
	}
}
