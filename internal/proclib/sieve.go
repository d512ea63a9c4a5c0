package proclib

import (
	"fmt"
	"io"

	"dpn/internal/core"
)

// Modulo filters multiples of P out of an int64 stream — the filter
// stage of the Sieve of Eratosthenes (Figure 7). Values divisible by P
// are discarded; everything else passes through. It is a run process
// (see runLen); its limit counts the elements it reads.
type Modulo struct {
	core.Iterative
	P   int64
	In  *core.ReadPort
	Out *core.WritePort

	buf [runLen]int64
}

// Step implements core.Stepper.
func (m *Modulo) Step(env *core.Env) error {
	vs := m.buf[:runOf(&m.Iterative)]
	n, err := m.In.Tokens().ReadInt64s(vs)
	if err != nil {
		return err
	}
	m.Done += int64(n)
	kept := vs[:0]
	for _, v := range vs[:n] {
		if v%m.P != 0 {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	return m.Out.Tokens().WriteInt64s(kept)
}

// Sift is the iterative self-modifying sieve process of Figure 8: each
// step reads the next prime from its input, emits it, and inserts a new
// Modulo process *upstream of itself* to remove that prime's multiples.
// The Modulo process takes over Sift's previous input channel exactly
// where Sift left off, so no data element is lost or repeated (§3.3).
type Sift struct {
	core.Iterative
	In  *core.ReadPort
	Out *core.WritePort
	// ChannelCapacity sets the buffer size of inserted channels
	// (default: network default).
	ChannelCapacity int
}

// Step implements core.Stepper.
func (s *Sift) Step(env *core.Env) error {
	prime, err := s.In.Tokens().ReadInt64()
	if err != nil {
		return err
	}
	if err := s.Out.Tokens().WriteInt64(prime); err != nil {
		return err
	}
	s.In = core.InsertUpstream(env, s.In, fmt.Sprintf("mod%d", prime), s.ChannelCapacity,
		func(handedOff *core.ReadPort, out *core.WritePort) {
			env.Spawn(&Modulo{P: prime, In: handedOff, Out: out})
		})
	return nil
}

// SiftRecursive is the recursive variant of Figure 7: the process reads
// one prime, emits it, then *replaces itself* in the program graph with
// a Modulo process (filtering that prime's multiples) feeding a fresh
// SiftRecursive, and terminates. Its ports are handed to the new
// processes, so the runtime must not close them — the fields are cleared
// before returning.
type SiftRecursive struct {
	core.Iterative
	In  *core.ReadPort
	Out *core.WritePort
	// ChannelCapacity sets the buffer size of the channel created
	// between the replacement Modulo and SiftRecursive processes.
	ChannelCapacity int
}

// Step implements core.Stepper.
func (s *SiftRecursive) Step(env *core.Env) error {
	prime, err := s.In.Tokens().ReadInt64()
	if err != nil {
		return err
	}
	if err := s.Out.Tokens().WriteInt64(prime); err != nil {
		return err
	}
	ch := env.NewChannel(fmt.Sprintf("sift%d", prime), s.ChannelCapacity)
	env.Spawn(&Modulo{P: prime, In: s.In, Out: ch.Writer()})
	env.Spawn(&SiftRecursive{In: ch.Reader(), Out: s.Out, ChannelCapacity: s.ChannelCapacity})
	s.In, s.Out = nil, nil
	return io.EOF
}
