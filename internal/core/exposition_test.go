package core

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"dpn/internal/conduit"
	"dpn/internal/stream"
)

// parkReader makes one read of p park on the empty buffer, then feeds it
// n bytes and waits for the read to return them.
func parkReader(t *testing.T, p *stream.Pipe, n int) {
	t.Helper()
	done := make(chan int)
	go func() {
		got, _ := p.Read(make([]byte, n))
		done <- got
	}()
	for p.BlockedReaders() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	p.Write(make([]byte, n))
	if got := <-done; got != n {
		t.Fatalf("parked read returned %d bytes, want %d", got, n)
	}
}

// parkWriter fills p, makes one write of n bytes park on the full
// buffer, then frees the room and waits for the write to finish.
func parkWriter(t *testing.T, p *stream.Pipe, n int) {
	t.Helper()
	p.Write(make([]byte, p.Cap()-p.Len()))
	done := make(chan error)
	go func() {
		_, err := p.Write(make([]byte, n))
		done <- err
	}()
	for p.BlockedWriters() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	p.Read(make([]byte, n))
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// maskTimings blanks the numbers that measure time — wait_ns_total
// values, and the block_seconds sum and finite buckets — and leaves
// every count exact.
var maskTimings = regexp.MustCompile(`(?m)^((?:dpn_conduit_wait_ns_total|dpn_conduit_block_seconds_sum|dpn_conduit_block_seconds_bucket\{[^}]*le="[^+][^}]*\})(?:\{[^}]*\})?) \S+$`)

// TestConduitExpositionGolden pins the exposition of a fixed graph: two channels named x — the first parks a reader and a
// writer once each and finishes, the second grows — and a channel y
// whose producing end is rebound to a transport. The exposition is
// rendered twice, so the second rendering reads x's finished channel
// after the first has retired it.
func TestConduitExpositionGolden(t *testing.T) {
	net := NewNetwork()
	a := net.NewChannel("x", 32)
	for i := range 3 {
		if err := a.Writer().Tokens().WriteInt64(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		if _, err := a.Reader().Tokens().ReadInt64(); err != nil {
			t.Fatal(err)
		}
	}
	parkReader(t, a.Pipe(), 3)
	parkWriter(t, a.Pipe(), 2)
	a.Pipe().Read(make([]byte, a.Pipe().Len()))
	a.Writer().Close()

	b := net.NewChannel("x", 64)
	b.Writer().Tokens().WriteInt64(7)
	b.Pipe().Write(make([]byte, 5))
	b.Pipe().Grow(128)
	b.Reader().Tokens().ReadInt64()

	y := net.NewChannel("y", 16)
	if _, err := y.Conduit().BindSource(conduit.NewLoopback(), conduit.Endpoint{Token: "golden"}); err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= 2; round++ {
		var sb strings.Builder
		if err := net.Obs().Registry().WriteProm(&sb); err != nil {
			t.Fatal(err)
		}
		got := maskTimings.ReplaceAllString(sb.String(), "$1 T")
		if got != conduitGolden {
			t.Fatalf("rendering %d differs from the golden exposition:\n%s", round, got)
		}
	}
}

const conduitGolden = `# HELP dpn_conduit_block_seconds Duration of blocking waits, by op (read|write).
# TYPE dpn_conduit_block_seconds histogram
dpn_conduit_block_seconds_bucket{channel="x",op="read",le="1e-06"} T
dpn_conduit_block_seconds_bucket{channel="x",op="read",le="1e-05"} T
dpn_conduit_block_seconds_bucket{channel="x",op="read",le="0.0001"} T
dpn_conduit_block_seconds_bucket{channel="x",op="read",le="0.001"} T
dpn_conduit_block_seconds_bucket{channel="x",op="read",le="0.01"} T
dpn_conduit_block_seconds_bucket{channel="x",op="read",le="0.1"} T
dpn_conduit_block_seconds_bucket{channel="x",op="read",le="1"} T
dpn_conduit_block_seconds_bucket{channel="x",op="read",le="10"} T
dpn_conduit_block_seconds_bucket{channel="x",op="read",le="+Inf"} 1
dpn_conduit_block_seconds_sum{channel="x",op="read"} T
dpn_conduit_block_seconds_count{channel="x",op="read"} 1
dpn_conduit_block_seconds_bucket{channel="x",op="write",le="1e-06"} T
dpn_conduit_block_seconds_bucket{channel="x",op="write",le="1e-05"} T
dpn_conduit_block_seconds_bucket{channel="x",op="write",le="0.0001"} T
dpn_conduit_block_seconds_bucket{channel="x",op="write",le="0.001"} T
dpn_conduit_block_seconds_bucket{channel="x",op="write",le="0.01"} T
dpn_conduit_block_seconds_bucket{channel="x",op="write",le="0.1"} T
dpn_conduit_block_seconds_bucket{channel="x",op="write",le="1"} T
dpn_conduit_block_seconds_bucket{channel="x",op="write",le="10"} T
dpn_conduit_block_seconds_bucket{channel="x",op="write",le="+Inf"} 1
dpn_conduit_block_seconds_sum{channel="x",op="write"} T
dpn_conduit_block_seconds_count{channel="x",op="write"} 1
dpn_conduit_block_seconds_bucket{channel="y",op="read",le="1e-06"} T
dpn_conduit_block_seconds_bucket{channel="y",op="read",le="1e-05"} T
dpn_conduit_block_seconds_bucket{channel="y",op="read",le="0.0001"} T
dpn_conduit_block_seconds_bucket{channel="y",op="read",le="0.001"} T
dpn_conduit_block_seconds_bucket{channel="y",op="read",le="0.01"} T
dpn_conduit_block_seconds_bucket{channel="y",op="read",le="0.1"} T
dpn_conduit_block_seconds_bucket{channel="y",op="read",le="1"} T
dpn_conduit_block_seconds_bucket{channel="y",op="read",le="10"} T
dpn_conduit_block_seconds_bucket{channel="y",op="read",le="+Inf"} 0
dpn_conduit_block_seconds_sum{channel="y",op="read"} T
dpn_conduit_block_seconds_count{channel="y",op="read"} 0
dpn_conduit_block_seconds_bucket{channel="y",op="write",le="1e-06"} T
dpn_conduit_block_seconds_bucket{channel="y",op="write",le="1e-05"} T
dpn_conduit_block_seconds_bucket{channel="y",op="write",le="0.0001"} T
dpn_conduit_block_seconds_bucket{channel="y",op="write",le="0.001"} T
dpn_conduit_block_seconds_bucket{channel="y",op="write",le="0.01"} T
dpn_conduit_block_seconds_bucket{channel="y",op="write",le="0.1"} T
dpn_conduit_block_seconds_bucket{channel="y",op="write",le="1"} T
dpn_conduit_block_seconds_bucket{channel="y",op="write",le="10"} T
dpn_conduit_block_seconds_bucket{channel="y",op="write",le="+Inf"} 0
dpn_conduit_block_seconds_sum{channel="y",op="write"} T
dpn_conduit_block_seconds_count{channel="y",op="write"} 0
# HELP dpn_conduit_blocks_total Blocking waits on the conduit, by op (read|write).
# TYPE dpn_conduit_blocks_total counter
dpn_conduit_blocks_total{channel="x",op="read"} 1
dpn_conduit_blocks_total{channel="x",op="write"} 1
dpn_conduit_blocks_total{channel="y",op="read"} 0
dpn_conduit_blocks_total{channel="y",op="write"} 0
# HELP dpn_conduit_bytes_total Bytes moved through the conduit buffer, by op (read|write).
# TYPE dpn_conduit_bytes_total counter
dpn_conduit_bytes_total{channel="x",op="read"} 69
dpn_conduit_bytes_total{channel="x",op="write"} 74
dpn_conduit_bytes_total{channel="y",op="read"} 0
dpn_conduit_bytes_total{channel="y",op="write"} 0
# HELP dpn_conduit_capacity_bytes Current buffer capacity (grows on artificial deadlock).
# TYPE dpn_conduit_capacity_bytes gauge
dpn_conduit_capacity_bytes{channel="x"} 128
dpn_conduit_capacity_bytes{channel="y"} 16
# HELP dpn_conduit_grows_total Capacity growths applied to the conduit.
# TYPE dpn_conduit_grows_total counter
dpn_conduit_grows_total{channel="x"} 1
dpn_conduit_grows_total{channel="y"} 0
# HELP dpn_conduit_occupancy_bytes Bytes currently buffered in the conduit.
# TYPE dpn_conduit_occupancy_bytes gauge
dpn_conduit_occupancy_bytes{channel="x"} 5
dpn_conduit_occupancy_bytes{channel="y"} 0
# HELP dpn_conduit_occupancy_peak_bytes High-water mark of buffered bytes.
# TYPE dpn_conduit_occupancy_peak_bytes gauge
dpn_conduit_occupancy_peak_bytes{channel="x"} 32
dpn_conduit_occupancy_peak_bytes{channel="y"} 0
# HELP dpn_conduit_rebinds_total Transport rebinds performed on the conduit, by dir (source|sink).
# TYPE dpn_conduit_rebinds_total counter
dpn_conduit_rebinds_total{channel="y",dir="source"} 1
# HELP dpn_conduit_tokens_total Typed elements moved through the conduit, by op (read|write).
# TYPE dpn_conduit_tokens_total counter
dpn_conduit_tokens_total{channel="x",op="read"} 4
dpn_conduit_tokens_total{channel="x",op="write"} 4
dpn_conduit_tokens_total{channel="y",op="read"} 0
dpn_conduit_tokens_total{channel="y",op="write"} 0
# HELP dpn_conduit_wait_ns_total Total nanoseconds blocked on the conduit, by op (read = consumer starved, write = producer throttled by a full buffer).
# TYPE dpn_conduit_wait_ns_total counter
dpn_conduit_wait_ns_total{channel="x",op="read"} T
dpn_conduit_wait_ns_total{channel="x",op="write"} T
dpn_conduit_wait_ns_total{channel="y",op="read"} T
dpn_conduit_wait_ns_total{channel="y",op="write"} T
# HELP dpn_net_proc_failures_total Processes that ended with a non-termination error.
# TYPE dpn_net_proc_failures_total counter
dpn_net_proc_failures_total 0
# HELP dpn_net_procs_blocked Parties other than transport links parked inside a registered channel's pipe that nothing has signalled yet.
# TYPE dpn_net_procs_blocked gauge
dpn_net_procs_blocked 0
# HELP dpn_net_procs_live Processes currently executing in this network.
# TYPE dpn_net_procs_live gauge
dpn_net_procs_live 0
# HELP dpn_net_procs_spawned_total Processes ever spawned in this network.
# TYPE dpn_net_procs_spawned_total counter
dpn_net_procs_spawned_total 0
`
