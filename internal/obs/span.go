package obs

import (
	"sync/atomic"
	"time"
)

// Sampler mints causal trace IDs for a fraction of the units passing a
// tap point (a pool intake, an outbound link's DATA stream). The 1st,
// (N+1)th, (2N+1)th, … call to Sample returns a fresh non-zero trace
// ID, so a tap's first unit is always traced; the rest return 0,
// which downstream code treats as "not sampled" and propagates for
// free. All methods are nil-safe, so an unconfigured tap costs one nil
// check.
type Sampler struct {
	every uint64
	seed  uint64
	n     atomic.Uint64
	ids   atomic.Uint64
}

// NewSampler returns a sampler that marks one unit in every `every`
// (every == 1 samples everything; every <= 0 returns nil — sampling
// disabled).
func NewSampler(every int) *Sampler {
	if every <= 0 {
		return nil
	}
	return &Sampler{
		every: uint64(every),
		seed:  uint64(time.Now().UnixNano()),
	}
}

// Sample counts one unit and returns a fresh trace ID if this unit is
// selected, 0 otherwise.
func (s *Sampler) Sample() uint64 {
	if s == nil {
		return 0
	}
	if !Sampled(s.n.Add(1)-1, s.every) {
		return 0
	}
	return s.NewID()
}

// Sampled is the one-in-every rule of a systematic sample: it reports
// whether the unit with 0-based ordinal n is marked, so the 1st,
// (every+1)th, (2·every+1)th, … units are. Sampler.Sample and the
// pipe's park clock (which times one park in 16) both use it.
func Sampled(n, every uint64) bool {
	return n%every == 0
}

// NewID mints a non-zero trace ID without consuming a sampling slot.
// IDs are unique within a sampler and collide across nodes only if two
// samplers share a creation nanosecond and a sequence number.
func (s *Sampler) NewID() uint64 {
	if s == nil {
		return 0
	}
	id := mix64(s.seed + s.ids.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler that
// spreads sequential inputs across the full 64-bit space.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
