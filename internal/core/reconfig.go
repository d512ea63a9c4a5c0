package core

import (
	"errors"
	"io"

	"dpn/internal/obs"
)

// noteReconfig records one graph-reconfiguration primitive firing: it
// bumps dpn_net_reconfig_total{kind} and emits an EvReconfig trace
// event with the affected channel as the subject.
func noteReconfig(n *Network, kind, subject string) {
	if n == nil {
		return
	}
	s := n.Obs()
	reg := s.Registry()
	reg.Help("dpn_net_reconfig_total", "Graph reconfigurations applied, by kind (splice-out|insert-upstream).")
	reg.Counter("dpn_net_reconfig_total", obs.L("kind", kind)).Inc()
	s.Record(obs.EvReconfig, subject, kind, 0)
}

// SpliceOut removes the calling process from the program graph by
// splicing its input channel onto the end of its consumer's pending
// input, exactly as in Figure 10 of the paper: the process's input
// pipe becomes the continuation of the pipe the consumer reads (the
// paper's SequenceInputStream; see stream.Pipe.Splice), and the
// process's output is then closed. The consumer drains
// whatever the process had already produced, observes the end of that
// stream, and continues seamlessly with the data the process would have
// copied — no data element is lost or duplicated.
//
// After SpliceOut returns, in is detached (reads fail, Close is a
// no-op) and out is closed; the process should return from its body.
// SpliceOut must be called by the process that owns both ports — graph
// reconfiguration is initiated by processes, never by an external
// agent, which is what preserves determinism (§3.3).
func SpliceOut(in *ReadPort, out *WritePort) error {
	if in == nil || out == nil {
		return errors.New("core: SpliceOut requires both ports")
	}
	ch := out.Channel()
	if ch == nil {
		return errors.New("core: SpliceOut requires a local output channel")
	}
	src := in.Detach()
	if src == nil {
		return ErrDetached
	}
	// Order matters: the continuation must be in place before the output
	// closes, so the consumer can never observe a spurious end of
	// stream.
	dst := ch.Reader().s
	if dst == nil || dst.p == nil {
		return ErrDetached
	}
	dst.p.Splice(src)
	noteReconfig(ch.Network(), "splice-out", ch.Name())
	return out.Close()
}

// InsertUpstream inserts a newly created process between the caller and
// its current input, as the Sift process does when it encounters a new
// prime (Figures 7–8 of the paper). It implements the port shuffle of
// Figure 8:
//
//	the caller's current input port is handed to the new process, a
//	fresh channel is created, the new process writes to it, and the
//	caller reads from it from then on.
//
// attach is called with (handedOffInput, freshChannelWriter) and must
// store both ports into the new process before it is spawned. The
// returned read port becomes the caller's new input; the caller is
// responsible for assigning it to its own field. The new process is
// spawned by the caller via env.Spawn after attach wiring, keeping the
// reconfiguration entirely under the initiating process's control.
//
// The returned port is registered to the caller, so a closed consumer
// downstream still cuts the caller and, through it, the inserted
// process (see cut.go).
func InsertUpstream(env *Env, in *ReadPort, name string, capacity int,
	attach func(handedOff *ReadPort, out *WritePort)) *ReadPort {
	ch := env.net.NewChannel(name, capacity)
	attach(in, ch.Writer())
	noteReconfig(env.net, "insert-upstream", ch.Name())
	env.net.hold(env.proc, []io.Closer{ch.Reader()})
	return ch.Reader()
}
