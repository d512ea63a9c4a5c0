package workload

import (
	"encoding/gob"
	"io"
	"time"

	"dpn/internal/core"
	"dpn/internal/proclib"
)

// The sieve scenario is the reconfiguration stress: SiftRecursive
// rewires itself at runtime — every prime it discovers splices a new
// Modulo filter and a fresh SiftRecursive into the live graph (§3.3's
// dynamic reconfiguration), so the graph's shape is data. The scenario
// seed perturbs the integer bound, so the suite never gates on one
// fixed graph size.

// pacedSeq writes From..From+N-1, sleeping Every between elements so
// distributed deployments can overlap faults and migrations with a
// live stream. It stays on the origin node.
type pacedSeq struct {
	From, N int64
	Every   time.Duration
	Out     *core.WritePort

	i int64
}

// Step implements core.Stepper.
func (s *pacedSeq) Step(env *core.Env) error {
	if s.i >= s.N {
		return io.EOF
	}
	if s.Every > 0 {
		time.Sleep(s.Every)
	}
	v := s.From + s.i
	s.i++
	return s.Out.Tokens().WriteInt64(v)
}

func init() {
	gob.Register(&pacedSeq{})
}

// sieveLimit derives the scenario's integer bound from the seed.
func sieveLimit(seed int64) int64 {
	if seed < 0 {
		seed = -seed
	}
	return 360 + seed%97
}

// sieve constructs the growing-sieve scenario: integers 2..limit-1
// through a recursive sift chain (or the static single-process sift
// when recursive is false), primes into the collector.
func sieve(recursive bool) scenario {
	name := "sieve-chain"
	if recursive {
		name = "sieve-grow"
	}
	return scenario{
		Name: name,
		Build: func(seed int64, pace time.Duration, n *core.Network) *graph {
			limit := sieveLimit(seed)
			ints := n.NewChannel("wl.sieve.ints", 4096)
			primes := n.NewChannel("wl.sieve.primes", 4096)
			n.Spawn(&pacedSeq{From: 2, N: limit - 2, Every: pace, Out: ints.Writer()})
			if recursive {
				n.Spawn(&proclib.SiftRecursive{In: ints.Reader(), Out: primes.Writer()})
			} else {
				n.Spawn(&proclib.Sift{In: ints.Reader(), Out: primes.Writer()})
			}
			tail := &collector{In: primes.Reader()}
			return &graph{Cut: []any{tail}, Tail: tail}
		},
		Oracle: func(seed int64) []int64 { return primesBelow(sieveLimit(seed)) },
	}
}

// primesBelow is the classic single-threaded sieve of Eratosthenes.
func primesBelow(limit int64) []int64 {
	if limit < 3 {
		return nil
	}
	composite := make([]bool, limit)
	var out []int64
	for p := int64(2); p < limit; p++ {
		if composite[p] {
			continue
		}
		out = append(out, p)
		for m := p * p; m < limit; m += p {
			composite[m] = true
		}
	}
	return out
}
