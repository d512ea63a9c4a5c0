// Package dpn_test is the benchmark harness: one benchmark per table
// and figure of the paper's evaluation (§5.2), plus the ablation
// benchmarks DESIGN.md calls out. Regenerate everything with
//
//	go test -bench=. -benchmem
//
// Table/figure benchmarks report the reproduced quantity through
// b.ReportMetric (minutes of simulated elapsed time, normalized
// speedup, or measured overhead), so `go test -bench` output is the
// experiment record; cmd/dpnbench prints the same data as tables.
package dpn_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dpn/internal/cluster"
	"dpn/internal/core"
	"dpn/internal/factor"
	"dpn/internal/graphs"
	"dpn/internal/meta"
	"dpn/internal/proclib"
	"dpn/internal/stream"
	"dpn/internal/token"
	"dpn/internal/wire"
)

// ---------------------------------------------------------------------
// Table 1: sequential execution.
// ---------------------------------------------------------------------

// BenchmarkTable1SequentialClasses reports each CPU class's simulated
// sequential time (minutes) and normalized speed, as in Table 1.
func BenchmarkTable1SequentialClasses(b *testing.B) {
	cfg := cluster.PaperConfig()
	for _, row := range cluster.Table1(cfg) {
		b.Run("class="+row.Class, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = cluster.Table1(cfg)
			}
			b.ReportMetric(row.TimeMin, "sim-minutes")
			b.ReportMetric(row.Speed, "speed")
		})
	}
}

// BenchmarkSequentialFactorReal is the Table 1 baseline run for real at
// reduced scale: direct task invocation, no process network. The per-op
// time is one full (scaled-down) factorization.
func BenchmarkSequentialFactorReal(b *testing.B) {
	key, err := factor.GenerateWeakKey(rand.New(rand.NewSource(2003)), 256, 31, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := factor.RunSequential(&factor.SearchSpace{N: key.N, Batch: 32})
		if err != nil || res == nil {
			b.Fatal("search failed")
		}
	}
}

// ---------------------------------------------------------------------
// Table 2 and Figures 19–20: parallel execution on the simulated
// heterogeneous cluster.
// ---------------------------------------------------------------------

// BenchmarkTable2Parallel reports simulated elapsed time (minutes) and
// speedup for every Table 2 cell.
func BenchmarkTable2Parallel(b *testing.B) {
	cfg := cluster.PaperConfig()
	for _, w := range cluster.Table2Workers {
		for _, policy := range []cluster.Policy{cluster.Ideal, cluster.Static, cluster.Dynamic} {
			b.Run(fmt.Sprintf("%v/workers=%d", policy, w), func(b *testing.B) {
				var res cluster.Result
				var err error
				for i := 0; i < b.N; i++ {
					res, err = cluster.Simulate(cfg, policy, w)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.Elapsed, "sim-minutes")
				b.ReportMetric(res.Speed, "speedup")
			})
		}
	}
}

// BenchmarkFigure19ElapsedCurve sweeps every worker count 1..34 (the
// series plotted in Figure 19).
func BenchmarkFigure19ElapsedCurve(b *testing.B) {
	cfg := cluster.PaperConfig()
	var rows []cluster.Table2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = cluster.Curves(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.DynamicTime, "sim-minutes-at-34")
	b.ReportMetric(last.StaticTime, "static-minutes-at-34")
}

// BenchmarkFigure20SpeedupCurve reports the top-end speedups and
// verifies the inflection points of Figure 20.
func BenchmarkFigure20SpeedupCurve(b *testing.B) {
	cfg := cluster.PaperConfig()
	var infl []int
	var err error
	for i := 0; i < b.N; i++ {
		infl, err = cluster.Inflections(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	has := func(w int) float64 {
		for _, v := range infl {
			if v == w {
				return 1
			}
		}
		return 0
	}
	b.ReportMetric(has(8), "inflect-at-8")
	b.ReportMetric(has(27), "inflect-at-27")
	rows, err := cluster.Curves(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rows[len(rows)-1].DynamicSpeed, "dyn-speedup-at-34")
}

// ---------------------------------------------------------------------
// §5.2 one-worker overhead claim, measured for real.
// ---------------------------------------------------------------------

// BenchmarkMetaDynamicOverhead runs the same scaled-down factorization
// through the full dynamic composition with one worker; compare its
// ns/op against BenchmarkSequentialFactorReal to reproduce the paper's
// ≤6–7% overhead claim (the dpnbench -overhead command computes the
// ratio directly).
func BenchmarkMetaDynamicOverhead(b *testing.B) {
	key, err := factor.GenerateWeakKey(rand.New(rand.NewSource(2003)), 256, 31, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := core.NewNetwork()
		dyn := meta.NewDynamic(n, &factor.SearchSpace{N: key.N, Batch: 32}, 1, 0)
		dyn.Spawn(n)
		if err := n.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetaStaticOverhead is the static-composition counterpart.
func BenchmarkMetaStaticOverhead(b *testing.B) {
	key, err := factor.GenerateWeakKey(rand.New(rand.NewSource(2003)), 256, 31, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := core.NewNetwork()
		st := meta.NewStatic(n, &factor.SearchSpace{N: key.N, Batch: 32, MaxTasks: 32}, 1, 0)
		st.Spawn(n)
		if err := n.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md): substrate costs underlying the experiments.
// ---------------------------------------------------------------------

// BenchmarkPipeThroughput measures the bounded pipe's raw byte
// throughput at several capacities (the §3.5 fairness/blocking
// machinery is on this path).
func BenchmarkPipeThroughput(b *testing.B) {
	for _, capacity := range []int{64, 1024, 64 * 1024} {
		b.Run(fmt.Sprintf("cap=%d", capacity), func(b *testing.B) {
			p := stream.NewPipe(capacity)
			chunk := make([]byte, 4096)
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := p.Read(buf); err != nil {
						return
					}
				}
			}()
			b.SetBytes(int64(len(chunk)))
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

// BenchmarkChannelInt64Elements measures typed element transfer through
// a full channel (port + pipe), the unit cost behind
// every arithmetic process.
func BenchmarkChannelInt64Elements(b *testing.B) {
	ch := core.NewChannel("bench", 4096)
	go func() {
		r := token.NewReader(ch.Reader())
		for {
			if _, err := r.ReadInt64(); err != nil {
				return
			}
		}
	}()
	w := token.NewWriter(ch.Writer())
	b.SetBytes(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteInt64(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ch.Writer().Close()
	ch.Reader().Close()
}

// BenchmarkLocalVsRemoteChannel compares a local pipe against a
// loopback-TCP remote channel (ablation: the cost the automatic
// connection machinery adds when a graph is split across nodes).
func BenchmarkLocalVsRemoteChannel(b *testing.B) {
	payload := make([]byte, 4096)
	b.Run("local", func(b *testing.B) {
		p := stream.NewPipe(1 << 16)
		go func() {
			buf := make([]byte, 8192)
			for {
				if _, err := p.Read(buf); err != nil {
					return
				}
			}
		}()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if _, err := p.Write(payload); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		p.CloseRead()
	})
	b.Run("remote-loopback", func(b *testing.B) {
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
		if _, err := c.Broker.DialInbound(a.Broker.Addr(), tok, dst.WriteEnd()); err != nil {
			b.Fatal(err)
		}
		go func() {
			buf := make([]byte, 8192)
			for {
				if _, err := dst.Read(buf); err != nil {
					return
				}
			}
		}()
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := src.Write(payload); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		src.CloseWrite()
		dst.CloseRead()
	})
}

// BenchmarkTaskSerialization measures the per-task gob cost (the
// paper's "Object Serialization ... additional minor sources of
// overhead"). Self-contained per-message encoding is the migration
// tradeoff documented in package token.
func BenchmarkTaskSerialization(b *testing.B) {
	key, err := factor.GenerateWeakKey(rand.New(rand.NewSource(1)), 512, 3, 32)
	if err != nil {
		b.Fatal(err)
	}
	task := &factor.SearchTask{N: key.N, D0: 0, Count: 32}
	p := stream.NewPipe(1 << 20)
	w := token.NewWriter(p)
	r := token.NewReader(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var t meta.Task = task
		if err := w.WriteObject(&t); err != nil {
			b.Fatal(err)
		}
		var got meta.Task
		if err := r.ReadObject(&got); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFibonacci measures the canonical feedback graph end to end.
func BenchmarkFibonacci(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := core.NewNetwork()
		graphs.Fibonacci(n, 64, false)
		if err := n.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSieve measures the self-modifying sieve in both styles.
func BenchmarkSieve(b *testing.B) {
	for _, mode := range []graphs.SieveMode{graphs.SieveIterative, graphs.SieveRecursive} {
		name := "iterative"
		if mode == graphs.SieveRecursive {
			name = "recursive"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := core.NewNetwork()
				graphs.SieveFirstN(n, 50, mode)
				if err := n.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStaticVsDynamicSim is the homogeneity ablation: on equal
// CPUs the two policies tie; on the paper's heterogeneous cluster the
// dynamic policy wins (compare the reported sim-minutes).
func BenchmarkStaticVsDynamicSim(b *testing.B) {
	homo := cluster.Config{
		Classes:           []cluster.Class{{Name: "X", SeqTime: 22.5, Count: 32}},
		RefSeqTime:        22.5,
		TotalTasks:        2048,
		CommFactorDynamic: 0.065,
		CommFactorStatic:  0.045,
		StartupPerWorker:  0.0028,
	}
	hetero := cluster.PaperConfig()
	for _, tc := range []struct {
		name string
		cfg  cluster.Config
	}{{"homogeneous", homo}, {"heterogeneous", hetero}} {
		for _, policy := range []cluster.Policy{cluster.Static, cluster.Dynamic} {
			b.Run(tc.name+"/"+policy.String(), func(b *testing.B) {
				var res cluster.Result
				var err error
				for i := 0; i < b.N; i++ {
					res, err = cluster.Simulate(tc.cfg, policy, 32)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.Elapsed, "sim-minutes")
			})
		}
	}
}

// BenchmarkDeadlockResolution measures the Hamming graph running under
// the deadlock monitor with deliberately tiny buffers (Figure 12 +
// §3.5): the per-op cost includes every detect-and-grow cycle.
func BenchmarkDeadlockResolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runHammingWithMonitor(b)
	}
}

func runHammingWithMonitor(b *testing.B) {
	n := core.NewNetwork()
	graphs.Hamming(n, 100, 16)
	mon := newMonitor(n)
	mon.Start()
	defer mon.Stop()
	if err := n.Wait(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcessSpawn measures goroutine-per-process creation and
// teardown (the paper's thread-per-process design decision).
func BenchmarkProcessSpawn(b *testing.B) {
	n := core.NewNetwork()
	for i := 0; i < b.N; i++ {
		ch := core.NewChannel("x", 64)
		src := &proclib.SliceSource{Values: []int64{1}, Out: ch.Writer()}
		sink := &proclib.Collect{In: ch.Reader()}
		p1 := n.Spawn(src)
		p2 := n.Spawn(sink)
		p1.Wait()
		p2.Wait()
	}
}
