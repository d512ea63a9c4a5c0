// Command dpnrun executes the paper's example program graphs locally,
// or — for the factorization workload — distributed across compute
// servers.
//
//	dpnrun -graph fib -n 20            Figure 2/6: Fibonacci numbers
//	dpnrun -graph primes -n 25         Figures 7–8: first n primes
//	dpnrun -graph primes-below -n 100  §3.4: all primes below n
//	dpnrun -graph hamming -n 20        Figure 12: 2^k·3^m·5^n sequence
//	dpnrun -graph sqrt -x 2            Figure 11: Newton square root
//	dpnrun -graph factor -workers 4    §5.2: weak-RSA factorization
//	    [-servers host:port,host:port] workers on remote compute servers
//	    [-registry host:port]          resolve servers from a registry
//	    [-static]                      static instead of dynamic balancing
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"dpn/internal/conduit"
	"dpn/internal/core"
	"dpn/internal/deadlock"
	"dpn/internal/factor"
	"dpn/internal/faults"
	"dpn/internal/graphs"
	"dpn/internal/meta"
	"dpn/internal/netio"
	"dpn/internal/obs"
	"dpn/internal/server"
	"dpn/internal/viz"
	"dpn/internal/wire"
)

// obsCfg carries the observability flags to every graph branch.
var obsCfg struct {
	metrics string
	stats   bool
	top     time.Duration
	pprof   bool
	mutex   int
	trace   string
	sample  int
}

// collectTrace gathers the per-node trace rings for -trace. The
// default (installed by instrument) snapshots the local tracer only;
// graph branches that ship work to remote compute servers override it
// to scrape each server's ring over the "trace" RPC as well.
var collectTrace func() []obs.NodeTrace

// chaosCfg carries the fault-injection flags to the branches that
// create a network broker.
var chaosCfg struct {
	faults    string
	resilient bool
	durable   string
	muxKey    string
}

// applyChaos wires the -faults / -resilient / -muxkey flags into a
// broker. -resilient is this node's retry policy, not a protocol: the
// nodes of a distributed graph may differ in it.
func applyChaos(b *netio.Broker) {
	if chaosCfg.muxKey != "" {
		b.SetPSK([]byte(chaosCfg.muxKey))
	}
	if chaosCfg.faults != "" {
		cfg, err := faults.Parse(chaosCfg.faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dpnrun: -faults:", err)
			os.Exit(2)
		}
		inj := faults.New(cfg)
		b.SetFaults(inj)
		fmt.Fprintf(os.Stderr, "fault injection enabled (chaos seed %d)\n", inj.Seed())
	}
	if chaosCfg.resilient {
		b.SetResilience(netio.DefaultResilience())
	}
}

// warnChaosUnused flags -faults/-resilient on runs that never create a
// network broker: faults are injected at the connection boundary, so a
// fully in-process graph has nowhere to apply them.
func warnChaosUnused() {
	if chaosCfg.faults != "" || chaosCfg.resilient || chaosCfg.durable != "" || chaosCfg.muxKey != "" {
		fmt.Fprintln(os.Stderr, "dpnrun: -faults/-resilient/-durable/-muxkey ignored: this run has no network links")
	}
}

// instrument applies the observability flags to the network about to
// run: it enables the event tracer, starts the observability HTTP
// endpoint (with the pprof handlers when -pprof is set), launches the
// live dpntop renderer, and returns the cleanup that writes the merged
// Chrome trace, prints the final summary table, and shuts everything
// down.
func instrument(net *core.Network) func() {
	scope := net.Obs()
	var hs *obs.HTTPServer
	if obsCfg.mutex > 0 {
		runtime.SetMutexProfileFraction(obsCfg.mutex)
	}
	if obsCfg.metrics != "" || obsCfg.stats || obsCfg.trace != "" {
		scope.Tracer().Enable()
	}
	if obsCfg.metrics != "" {
		var err error
		hs, err = obs.ServeScope(obsCfg.metrics, scope, obsCfg.pprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dpnrun: metrics:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "observability on http://%s/\n", hs.Addr())
	}
	stopTop := make(chan struct{})
	var topDone chan struct{}
	if obsCfg.top > 0 {
		topDone = make(chan struct{})
		tv := viz.NewTopView(os.Stderr)
		if st, err := os.Stderr.Stat(); err == nil && st.Mode()&os.ModeCharDevice != 0 {
			tv.Clear = true
		}
		go func() {
			defer close(topDone)
			tick := time.NewTicker(obsCfg.top)
			defer tick.Stop()
			tv.Render(scope.Registry().Samples(), time.Now())
			for {
				select {
				case <-stopTop:
					// One closing frame so even a run shorter than the
					// refresh interval shows its table once.
					tv.Render(scope.Registry().Samples(), time.Now())
					return
				case now := <-tick.C:
					tv.Render(scope.Registry().Samples(), now)
				}
			}
		}()
	}
	if collectTrace == nil {
		collectTrace = func() []obs.NodeTrace {
			return []obs.NodeTrace{{Node: "local", Events: scope.Tracer().Events()}}
		}
	}
	return func() {
		close(stopTop)
		if topDone != nil {
			<-topDone
		}
		if obsCfg.trace != "" {
			writeTraceFile(obsCfg.trace, collectTrace())
		}
		if obsCfg.stats {
			fmt.Println()
			viz.StatsTable(os.Stdout, scope.Registry())
		}
		hs.Close()
	}
}

// writeTraceFile merges the per-node trace rings into one Chrome trace
// (chrome://tracing / Perfetto format) at path.
func writeTraceFile(path string, nodes []obs.NodeTrace) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpnrun: -trace:", err)
		return
	}
	defer f.Close()
	if err := obs.WriteMergedTrace(f, nodes); err != nil {
		fmt.Fprintln(os.Stderr, "dpnrun: -trace:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "merged trace (%d nodes) written to %s\n", len(nodes), path)
}

func main() {
	var (
		graph    = flag.String("graph", "fib", "fib | primes | primes-below | hamming | sqrt | factor")
		n        = flag.Int64("n", 20, "element count / bound for the chosen graph")
		x        = flag.Float64("x", 2, "input for -graph sqrt")
		workers  = flag.Int("workers", 4, "worker count for -graph factor")
		static   = flag.Bool("static", false, "use static load balancing for -graph factor")
		servers  = flag.String("servers", "", "comma-separated compute-server addresses for -graph factor")
		registry = flag.String("registry", "", "registry address to resolve compute servers from")
		bits     = flag.Int("bits", 256, "prime size for -graph factor")
		recurse  = flag.Bool("recursive", false, "use the recursive Sift (Figure 7) for -graph primes*")
		validate = flag.Bool("validate", false, "for -graph factor: print the graph structure and Kahn consistency check before running (§3's front-end consistency checking)")
		dot      = flag.Bool("dot", false, "for -graph factor: print the program graph in Graphviz DOT format and exit")
		metrics  = flag.String("metrics", "", "observability HTTP listen address (serves /metrics and /trace while the graph runs)")
		stats    = flag.Bool("stats", false, "print a per-channel/per-process summary table after the run")
		top      = flag.Duration("top", 0, "live dpntop view: refresh interval for the per-channel rate/blocked-time table on stderr (0 disables), e.g. -top 1s")
		pprofF   = flag.Bool("pprof", false, "with -metrics: also serve /debug/pprof/ on the observability endpoint")
		mutexF   = flag.Int("mutexprofile", 0, "mutex profile sampling fraction passed to runtime.SetMutexProfileFraction (0 leaves profiling off)")
		traceOut = flag.String("trace", "", "write a merged multi-node Chrome trace (JSON) to this file after the run")
		sample   = flag.Int("tracesample", 64, "with -trace: trace the 1st, (N+1)th, … task of the -graph factor farm, and carry a causal trace mark on the 1st, (N+1)th, … outbound data frame")
		faultsF  = flag.String("faults", "", "inject network faults on this node's broker, e.g. seed=7,drop=0.01,latency=2ms,partition=1s:500ms,mode=stall")
		resil    = flag.Bool("resilient", false, "retry policy: this node's links ride out a dead session (re-dial with backoff, resume where the stream stopped) for up to 15s instead of ending the channel at once; nodes may differ, but a link heals only when both its ends retry")
		durableF = flag.String("durable", "", "journal boundary channels to a WAL under this directory, truncated as the peer acknowledges: a node restarted after kill -9 resumes its streams from the journal (a surviving peer waits out the restart only under -resilient)")
		muxKeyF  = flag.String("muxkey", "", "cluster pre-shared key for session peer authentication (empty accepts any peer; set the same key on every node)")
	)
	flag.Parse()
	obsCfg.metrics, obsCfg.stats = *metrics, *stats
	obsCfg.top, obsCfg.pprof, obsCfg.mutex = *top, *pprofF, *mutexF
	obsCfg.trace, obsCfg.sample = *traceOut, *sample
	chaosCfg.faults, chaosCfg.resilient = *faultsF, *resil
	chaosCfg.durable = *durableF
	chaosCfg.muxKey = *muxKeyF
	if *graph != "factor" {
		warnChaosUnused()
	}

	switch *graph {
	case "fib":
		net := core.NewNetwork()
		defer instrument(net)()
		sink := graphs.Fibonacci(net, *n, false)
		wait(net)
		for _, v := range sink.Values() {
			fmt.Println(v)
		}
	case "primes":
		net := core.NewNetwork()
		defer instrument(net)()
		sink := graphs.SieveFirstN(net, *n, mode(*recurse))
		wait(net)
		for _, v := range sink.Values() {
			fmt.Println(v)
		}
	case "primes-below":
		net := core.NewNetwork()
		defer instrument(net)()
		sink := graphs.SieveBounded(net, *n, mode(*recurse))
		wait(net)
		for _, v := range sink.Values() {
			fmt.Println(v)
		}
	case "hamming":
		net := core.NewNetwork()
		defer instrument(net)()
		sink := graphs.Hamming(net, *n, 64)
		mon := deadlock.New(net, 0)
		mon.DumpTo = os.Stderr
		mon.Start()
		wait(net)
		mon.Stop()
		for _, v := range sink.Values() {
			fmt.Println(v)
		}
		fmt.Printf("(deadlocks resolved by buffer growth: %d)\n", mon.Resolutions())
	case "sqrt":
		net := core.NewNetwork()
		defer instrument(net)()
		sink := graphs.Sqrt(net, *x, *x/2)
		wait(net)
		for _, v := range sink.Values() {
			fmt.Printf("sqrt(%g) = %.17g\n", *x, v)
		}
	case "factor":
		runFactor(*bits, *workers, *static, *servers, *registry, *validate, *dot)
	default:
		fmt.Fprintf(os.Stderr, "dpnrun: unknown graph %q\n", *graph)
		os.Exit(2)
	}
}

func mode(recursive bool) graphs.SieveMode {
	if recursive {
		return graphs.SieveRecursive
	}
	return graphs.SieveIterative
}

func wait(n *core.Network) {
	if err := n.Wait(); err != nil {
		fmt.Fprintln(os.Stderr, "dpnrun:", err)
		os.Exit(1)
	}
}

func runFactor(bits, workers int, static bool, serverList, registryAddr string, validate, dot bool) {
	key, err := factor.GenerateWeakKey(rand.New(rand.NewSource(time.Now().UnixNano())), bits,
		int64(workers)*8, factor.DefaultBatch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpnrun:", err)
		os.Exit(1)
	}
	fmt.Printf("searching for the factors of a %d-bit modulus with %d workers (%s balancing)\n",
		key.N.BitLen(), workers, balanceName(static))

	var addrs []string
	if registryAddr != "" {
		_, regAddrs, err := server.List(registryAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dpnrun: registry:", err)
			os.Exit(1)
		}
		addrs = regAddrs
	} else if serverList != "" {
		addrs = strings.Split(serverList, ",")
	}

	var node *wire.Node
	if len(addrs) > 0 {
		node, err = wire.NewLocalNode("127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "dpnrun:", err)
			os.Exit(1)
		}
		defer node.Close()
		applyChaos(node.Broker)
		// Durable wraps whatever transport the node already has, so
		// -faults composes: chaos faults under a journaled binding.
		if chaosCfg.durable != "" {
			node.SetTransport(conduit.Durable{
				Inner: node.Transport(),
				Dir:   chaosCfg.durable,
				Obs:   node.Obs(),
			})
			fmt.Fprintf(os.Stderr, "durable conduits: journaling boundary channels under %s\n", chaosCfg.durable)
		}
		if obsCfg.trace != "" {
			node.Broker.SetTraceSampling(obsCfg.sample)
		}
	} else {
		warnChaosUnused()
	}
	net := core.NewNetwork()
	if node != nil {
		net = node.Net
	}
	defer instrument(net)()
	if obsCfg.trace != "" && len(addrs) > 0 {
		// Merge the servers' trace rings with ours: each remote ring is
		// scraped over the "trace" RPC when the run finishes, and the
		// per-node clocks are aligned on the causal wire-out → wire-in
		// span pairs the sampled frames produced.
		scope := net.Obs()
		collectTrace = func() []obs.NodeTrace {
			nodes := []obs.NodeTrace{{Node: "driver", Events: scope.Tracer().Events()}}
			for _, addr := range addrs {
				cl, err := server.Dial(addr)
				if err != nil {
					fmt.Fprintf(os.Stderr, "dpnrun: -trace: server %s: %v\n", addr, err)
					continue
				}
				evs, err := cl.TraceEvents()
				cl.Close()
				if err != nil {
					fmt.Fprintf(os.Stderr, "dpnrun: -trace: server %s: %v\n", addr, err)
					continue
				}
				nodes = append(nodes, obs.NodeTrace{Node: addr, Events: evs})
			}
			return nodes
		}
	}

	source := &factor.SearchSpace{N: key.N, Batch: factor.DefaultBatch}
	var consumer *meta.Consumer
	var workerProcs []*meta.Worker
	var graphProcs []any
	var spawnRest func()
	if static {
		st := meta.NewStatic(net, source, workers, 0)
		consumer = st.Consumer
		workerProcs = st.Workers
		graphProcs = []any{st.Producer, st.Scatter, st.Gather, st.Consumer}
		spawnRest = func() {
			net.Spawn(st.Producer)
			net.Spawn(st.Scatter)
			net.Spawn(st.Gather)
			net.Spawn(st.Consumer)
		}
	} else {
		dyn := meta.NewDynamic(net, source, workers, 0)
		if obsCfg.trace != "" {
			// Farm-level causal sampling: a sampled task's intake,
			// dispatch, result and in-order emission become span events
			// in the trace even without a network link in the run.
			dyn.SetTraceSampling(obsCfg.sample)
		}
		consumer = dyn.Consumer
		workerProcs = dyn.Workers
		graphProcs = []any{dyn.Producer, dyn.Direct, dyn.Turnstile, dyn.IndexCons, dyn.Select, dyn.Consumer}
		spawnRest = func() {
			net.Spawn(dyn.Producer)
			net.Spawn(dyn.Direct)
			net.Spawn(dyn.Turnstile)
			net.Spawn(dyn.IndexCons)
			net.Spawn(dyn.Select)
			net.Spawn(dyn.Consumer)
		}
	}
	consumer.SetOnResult(func(ran, result meta.Task) {
		if r, ok := ran.(*factor.Result); ok && r.Found {
			fmt.Printf("found: %s\n", r)
		}
	})
	if validate || dot {
		all := []any{}
		for _, w := range workerProcs {
			all = append(all, w)
		}
		all = append(all, graphProcs...)
		if dot {
			fmt.Print(viz.DOT(viz.Inspect(all...)))
			return
		}
		fmt.Print(viz.Summary(all...))
		if v, _ := viz.Validate(all...); len(v) > 0 {
			fmt.Fprintln(os.Stderr, "dpnrun: graph violates Kahn constraints; refusing to run")
			os.Exit(1)
		}
	}

	start := time.Now()
	if len(addrs) > 0 {
		// Ship the workers round-robin to the compute servers.
		for i, w := range workerProcs {
			addr := addrs[i%len(addrs)]
			cl, err := server.Dial(addr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dpnrun: server %s: %v\n", addr, err)
				os.Exit(1)
			}
			if _, err := cl.RunProcs(node, w); err != nil {
				fmt.Fprintf(os.Stderr, "dpnrun: shipping worker %d: %v\n", i, err)
				os.Exit(1)
			}
			cl.Close()
			fmt.Printf("worker %d → %s\n", i, addr)
		}
	} else {
		for _, w := range workerProcs {
			net.Spawn(w)
		}
	}
	spawnRest()
	wait(net)
	fmt.Printf("elapsed: %v\n", time.Since(start))
}

func balanceName(static bool) string {
	if static {
		return "static"
	}
	return "dynamic"
}
