// Command dpnserver runs a generic compute server (§4.1): it accepts
// serialized pieces of process-network program graphs and executes
// them, re-establishing channel connections automatically. If a
// registry address is given, the server announces itself there so
// client applications can locate it by name.
//
//	dpnserver -name east -rpc :7000 -broker :7001 -registry host:6999
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dpn/internal/conduit"
	"dpn/internal/deadlock"
	"dpn/internal/faults"
	"dpn/internal/netio"
	"dpn/internal/obs"
	"dpn/internal/server"
	"dpn/internal/viz"

	// The paper notes that "the compiled class files for the
	// application must be available on the local file system of each
	// server" (§6.2). The Go analog: every process and task type a
	// client may ship must be compiled into the server binary and
	// registered with gob. These imports are the server's codebase: the
	// process library, the image-block and factorization tasks, and the
	// streaming-analytics stages, each package registering only the
	// types a graph can ship (main_test.go pins the set). Applications
	// with new task types build their own server binary with these
	// lines plus their packages.
	_ "dpn/internal/blockcodec"
	_ "dpn/internal/factor"
	_ "dpn/internal/proclib"
	_ "dpn/internal/workload"
)

func main() {
	var (
		name       = flag.String("name", "dpn", "server name for the registry")
		rpcAddr    = flag.String("rpc", "127.0.0.1:0", "RPC listen address")
		broker     = flag.String("broker", "127.0.0.1:0", "channel broker listen address")
		registry   = flag.String("registry", "", "optional registry address to announce to")
		metrics    = flag.String("metrics", "", "optional observability HTTP listen address (serves /metrics and /trace)")
		statsEvery = flag.Duration("statsevery", 30*time.Second, "interval between stats log lines when -metrics is enabled")
		faultsF    = flag.String("faults", "", "inject network faults on this server's broker, e.g. seed=7,drop=0.01,latency=2ms,partition=1s:500ms,mode=stall")
		resil      = flag.Bool("resilient", false, "retry policy: this node's links ride out a dead session (re-dial with backoff, resume where the stream stopped) for up to 15s instead of ending the channel at once; nodes may differ, but a link heals only when both its ends retry")
		pprofF     = flag.Bool("pprof", false, "with -metrics: also serve /debug/pprof/ on the observability endpoint")
		mutexF     = flag.Int("mutexprofile", 0, "mutex profile sampling fraction passed to runtime.SetMutexProfileFraction (0 leaves profiling off)")
		sample     = flag.Int("tracesample", 0, "carry a causal trace mark on the 1st, (N+1)th, … outbound data frame and record span events (0 disables); a task farm's tasks are sampled by dpnrun -tracesample")
		durableF   = flag.String("durable", "", "journal boundary channels to a WAL under this directory, truncated as the peer acknowledges: a node restarted after kill -9 resumes its streams from the journal (a surviving peer waits out the restart only under -resilient)")
		muxKeyF    = flag.String("muxkey", "", "cluster pre-shared key for session peer authentication (empty accepts any peer; set the same key on every node)")
	)
	flag.Parse()

	s, err := server.New(*name, *rpcAddr, *broker)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpnserver:", err)
		os.Exit(1)
	}
	defer s.Close()
	fmt.Printf("dpnserver %q rpc=%s broker=%s\n", s.Name(), s.Addr(), s.BrokerAddr())

	if *faultsF != "" {
		cfg, err := faults.Parse(*faultsF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dpnserver: -faults:", err)
			os.Exit(2)
		}
		inj := faults.New(cfg)
		s.Node().Broker.SetFaults(inj)
		fmt.Printf("fault injection enabled (chaos seed %d)\n", inj.Seed())
	}
	// -resilient is this node's retry policy, not a protocol: the nodes
	// of a distributed graph may differ in it.
	if *resil {
		s.Node().Broker.SetResilience(netio.DefaultResilience())
	}
	if *muxKeyF != "" {
		s.Node().Broker.SetPSK([]byte(*muxKeyF))
	}
	// Durable wraps whatever transport the node already has (so
	// -faults composes: chaos faults under a journaled binding).
	if *durableF != "" {
		s.Node().SetTransport(conduit.Durable{
			Inner: s.Node().Transport(),
			Dir:   *durableF,
			Obs:   s.Node().Obs(),
		})
		fmt.Printf("durable conduits: journaling boundary channels under %s\n", *durableF)
	}
	if *mutexF > 0 {
		runtime.SetMutexProfileFraction(*mutexF)
	}
	// Trace sampling works without -metrics: the ring is served to
	// collectors over the "trace" RPC, not only over HTTP.
	if *sample > 0 {
		s.Node().Obs().Tracer().Enable()
		s.Node().Broker.SetTraceSampling(*sample)
		fmt.Printf("causal trace sampling: every %d outbound data frames\n", *sample)
	}

	// Parks' buffer management (§3.5) runs on every server: a graph
	// shipped here may artificially deadlock on its own channels. The
	// monitor has no peers: the network's quiescence wakes it. On a
	// true-deadlock verdict the monitor dumps the channel watermarks and
	// a goroutine profile to stderr, so a wedged server explains itself.
	mon := deadlock.New(s.Node().Net, 0)
	mon.DumpTo = os.Stderr
	mon.Start()
	defer mon.Stop()

	if *metrics != "" {
		scope := s.Node().Obs()
		scope.Tracer().Enable()
		hs, err := obs.ServeScope(*metrics, scope, *pprofF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dpnserver: metrics:", err)
			os.Exit(1)
		}
		defer hs.Close()
		fmt.Printf("observability on http://%s/\n", hs.Addr())
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			logLine := time.NewTicker(*statsEvery)
			defer logLine.Stop()
			for {
				select {
				case <-stop:
					return
				case <-logLine.C:
					fmt.Printf("stats: %s\n", viz.StatsLine(scope.Registry()))
				}
			}
		}()
	}

	if *registry != "" {
		if err := server.Register(*registry, *name, s.Addr()); err != nil {
			fmt.Fprintln(os.Stderr, "dpnserver: registry:", err)
			os.Exit(1)
		}
		defer server.Unregister(*registry, *name)
		fmt.Printf("registered with %s as %q\n", *registry, *name)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("dpnserver: shutting down")
}
