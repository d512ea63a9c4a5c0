package workload

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpn/internal/conduit"
	"dpn/internal/core"
	"dpn/internal/netio"
	"dpn/internal/stream"
)

// deployKillRestart runs the scenario graph in a re-exec'd child process
// whose merged output crosses a durable WAL-backed conduit back to the
// driver. The driver SIGKILLs the child at collector progress marks
// and restarts it against the same journal directory; the restarted
// incarnation re-produces the deterministic stream from zero, the
// journal discards the already-sent prefix, and the RESUME handshake
// replays only what the driver never saw — so the collected output
// must stay byte-identical to the oracle, exactly once.
//
// Not listed in deployments: it re-execs the test binary, whose
// TestMain hosts the child.
const deployKillRestart deployment = "killrestart"

// Child-side environment protocol. The driver re-execs its own binary
// with these set; childMain intercepts before any driver logic runs.
const (
	envChild    = "DPN_WORKLOAD_CHILD"
	envScenario = "DPN_KR_SCENARIO"
	envSeed     = "DPN_KR_SEED"
	envPace     = "DPN_KR_PACE"
	envAddr     = "DPN_KR_ADDR"
	envToken    = "DPN_KR_TOKEN"
	envDir      = "DPN_KR_DIR"
)

// krResilience is patient enough that the surviving driver treats a
// SIGKILL-plus-restart of the child as one long partition.
func krResilience(seed int64) netio.Resilience {
	return netio.Resilience{
		HeartbeatEvery: 25 * time.Millisecond,
		MissDeadline:   250 * time.Millisecond,
		RetryBase:      5 * time.Millisecond,
		RetryMax:       100 * time.Millisecond,
		LinkDeadline:   60 * time.Second,
		Seed:           seed,
	}
}

// krToken is the rendezvous token for a kill-restart run. It must be
// chosen by the caller, not minted by the broker: broker tokens embed
// the broker address and a sequence number, so a restarted child would
// never find its predecessor's journal or the driver's waiting link.
func krToken(name string, seed int64) string {
	return fmt.Sprintf("kr/%s/%d", name, seed)
}

// streamTail replaces the scenario collector in the child: it reads
// the merged int64 stream and writes fixed-width big-endian frames to
// W — the same bytes the oracle comparison is defined over. On
// upstream EOS it closes W so the conduit propagates EOF.
type streamTail struct {
	In *core.ReadPort
	W  io.WriteCloser
}

// Step implements core.Stepper.
func (s *streamTail) Step(env *core.Env) error {
	v, err := s.In.Tokens().ReadInt64()
	if err != nil {
		s.W.Close()
		return err
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	if _, err := s.W.Write(b[:]); err != nil {
		return fmt.Errorf("stream tail: %w", err)
	}
	return nil
}

// childMain runs the kill-restart child when the environment gate is
// set, and exits the process when done; otherwise it returns
// immediately. TestMain calls it before any test runs.
func childMain() {
	if os.Getenv(envChild) != "1" {
		return
	}
	if err := childRun(); err != nil {
		fmt.Fprintf(os.Stderr, "dpn kill-restart child: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func childRun() error {
	name := os.Getenv(envScenario)
	seed, err := strconv.ParseInt(os.Getenv(envSeed), 10, 64)
	if err != nil {
		return fmt.Errorf("%s: %w", envSeed, err)
	}
	pace, err := time.ParseDuration(os.Getenv(envPace))
	if err != nil {
		return fmt.Errorf("%s: %w", envPace, err)
	}
	addr, tok, dir := os.Getenv(envAddr), os.Getenv(envToken), os.Getenv(envDir)
	if addr == "" || tok == "" || dir == "" {
		return fmt.Errorf("incomplete child environment (addr=%q token=%q dir=%q)", addr, tok, dir)
	}
	cat := catalog(seed)
	var sc *scenario
	for i := range cat {
		if cat[i].Name == name {
			sc = &cat[i]
			break
		}
	}
	if sc == nil {
		return fmt.Errorf("unknown scenario %q", name)
	}

	broker, err := netio.NewBroker("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer broker.Close()
	broker.SetResilience(krResilience(seed))

	pipe := stream.NewPipe(64 << 10)
	d := conduit.Durable{Inner: conduit.Mux{Broker: broker}, Dir: dir}
	l, err := d.BindOutbound(conduit.Endpoint{Addr: addr, Token: tok}, pipe.ReadEnd(), 256<<10)
	if err != nil {
		return fmt.Errorf("bind durable outbound: %w", err)
	}

	n := core.NewNetwork()
	g := sc.Build(seed, pace, n)
	for _, p := range g.Cut {
		if p == any(g.Tail) {
			continue
		}
		n.Spawn(p)
	}
	n.Spawn(&streamTail{In: g.Tail.In, W: pipe.WriteEnd()})

	if err := waitNet(n, "child network", 120*time.Second); err != nil {
		return err
	}
	if err := l.Wait(); err != nil {
		return fmt.Errorf("durable link: %w", err)
	}
	return nil
}

// runKillRestart is the driver side: serve the durable rendezvous,
// re-exec the child, SIGKILL it at each progress mark, restart it
// against the same journal, and collect the stream to completion.
func runKillRestart(sc scenario, seed int64, opt runOptions, timeout time.Duration) ([]int64, error) {
	dir := opt.KRDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "dpn-kr-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	broker, err := netio.NewBroker("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer broker.Close()
	broker.SetResilience(krResilience(seed))

	tok := krToken(sc.Name, seed)
	pipe := stream.NewPipe(256 << 10)
	if _, err := (conduit.Mux{Broker: broker}).BindInbound(conduit.Endpoint{Token: tok}, pipe.WriteEnd()); err != nil {
		return nil, fmt.Errorf("bind inbound: %w", err)
	}

	var (
		mu    sync.Mutex
		vals  []int64
		count atomic.Int64
	)
	decoded := make(chan error, 1)
	go func() {
		r := pipe.ReadEnd()
		var b [8]byte
		for {
			if _, err := io.ReadFull(r, b[:]); err != nil {
				if err == io.EOF {
					err = nil // a torn frame would be ErrUnexpectedEOF
				}
				decoded <- err
				return
			}
			mu.Lock()
			vals = append(vals, int64(binary.BigEndian.Uint64(b[:])))
			mu.Unlock()
			count.Add(1)
		}
	}()

	env := []string{
		envChild + "=1",
		envScenario + "=" + sc.Name,
		envSeed + "=" + strconv.FormatInt(seed, 10),
		envPace + "=" + opt.Pace.String(),
		envAddr + "=" + broker.Addr(),
		envToken + "=" + tok,
		envDir + "=" + dir,
	}
	child, err := startChild(env)
	if err != nil {
		return nil, fmt.Errorf("start child: %w", err)
	}

	marks := append([]int64(nil), opt.KillAt...)
	sort.Slice(marks, func(i, j int) bool { return marks[i] < marks[j] })
	deadline := time.Now().Add(timeout)

	// waitFor polls until the collected element count satisfies cond,
	// the stream completes (finished=true), or the deadline passes.
	waitFor := func(cond func(int64) bool, what string) (finished bool, err error) {
		for {
			select {
			case derr := <-decoded:
				if derr != nil {
					return false, fmt.Errorf("stream decode: %w", derr)
				}
				return true, nil
			default:
			}
			if cond(count.Load()) {
				return false, nil
			}
			if time.Now().After(deadline) {
				return false, fmt.Errorf("timeout waiting for %s (at %d elements)", what, count.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}

	finished := false
	for _, mark := range marks {
		mark := mark
		var err error
		finished, err = waitFor(func(c int64) bool { return c >= mark }, fmt.Sprintf("kill mark %d", mark))
		if err != nil {
			return nil, err
		}
		if finished {
			break // the stream outran the remaining marks
		}
		if err := child.Process.Kill(); err != nil {
			return nil, fmt.Errorf("kill child: %w", err)
		}
		child.Wait() // reap; a SIGKILL death is the expected "error"
		at := count.Load()
		restartAt := time.Now()
		child, err = startChild(env)
		if err != nil {
			return nil, fmt.Errorf("restart child: %w", err)
		}
		// Recovery: from restart to the first element the dead
		// incarnation had not already delivered.
		finished, err = waitFor(func(c int64) bool { return c > at }, "post-restart progress")
		if err != nil {
			return nil, err
		}
		if opt.Stats != nil {
			opt.Stats.Recoveries = append(opt.Stats.Recoveries, time.Since(restartAt))
		}
		if finished {
			break
		}
	}

	if !finished {
		select {
		case derr := <-decoded:
			if derr != nil {
				return nil, fmt.Errorf("stream decode: %w", derr)
			}
		case <-time.After(time.Until(deadline)):
			return nil, fmt.Errorf("stream did not complete (at %d elements)", count.Load())
		}
	}
	if err := child.Wait(); err != nil {
		return nil, fmt.Errorf("final child exit: %w", err)
	}
	mu.Lock()
	defer mu.Unlock()
	return vals, nil
}

// TestMain hosts the kill-restart child: when the driver re-execs this
// test binary with the child env gate set, childMain runs the scenario
// and exits before any test machinery starts.
func TestMain(m *testing.M) {
	childMain()
	os.Exit(m.Run())
}

// TestScenarioKillRestart is the crash-restart acceptance property:
// every catalog scenario's merged output stays byte-identical to its
// oracle when the producing process is SIGKILLed mid-stream (twice)
// and restarted against the same durable journal.
func TestScenarioKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-restart matrix in -short mode")
	}
	base := workloadSeed(t, 2003)
	for _, sc := range catalog(base) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			var st runStats
			opt := runOptions{
				Pace:  time.Millisecond,
				KRDir: t.TempDir(),
				Stats: &st,
			}
			if err := check(sc, base, deployKillRestart, opt); err != nil {
				t.Fatalf("replay with WORKLOAD_SEED=%d: %v", base, err)
			}
			if len(st.Recoveries) == 0 {
				t.Fatalf("no kill landed mid-stream; pace the sources harder (replay with WORKLOAD_SEED=%d)", base)
			}
			for i, r := range st.Recoveries {
				t.Logf("recovery %d: %v", i+1, r)
			}
		})
	}
}

// startChild re-execs the test binary as the kill-restart child, with
// env appended to this process's environment and its stderr shared.
// The driver kills it with Process.Kill, an uncatchable SIGKILL: the
// child gets no chance to flush, close or say goodbye, exactly the
// crash the durable journal must absorb. Wait reaps it.
func startChild(env []string) (*exec.Cmd, error) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = os.Stderr
	return cmd, cmd.Start()
}
