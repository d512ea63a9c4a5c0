package core

import (
	"sync/atomic"
	"time"

	"dpn/internal/obs"
	"dpn/internal/stream"
)

// The network is its registry's one collector: it exposes the
// dpn_conduit_* families from the channel list it already keeps, so a
// channel registers no series and a scrape reads each count where it
// happens. The inventory is in DESIGN.md ("Observability").

// record is what the channels of one name share in the exposition.
// Ports add tokens after the pipe operation, outside its lock, so the
// token counts are kept per name, where folding a channel loses none.
// retired holds the folded counts of the name's settled channels.
type record struct {
	name    string
	index   int             // in Network.order
	tokens  [2]atomic.Int64 // by op: [0] read, [1] write
	retired *tally          // nil until one of the name's channels settles
}

// tally is what a scrape reads of one channel, or adds up for a name:
// its pipe's counts and its conduit's rebinds, by dir ([0] source,
// [1] sink).
type tally struct {
	stream.Counts
	rebinds [2]int64
}

// add adds src's counts to t's, and raises t's gauges to src's, so the
// channels of one name read as one channel.
func (t *tally) add(src *tally) {
	dst := &t.Counts
	dst.Written += src.Written
	dst.Read += src.Read
	dst.Buffered = max(dst.Buffered, src.Buffered)
	dst.Peak = max(dst.Peak, src.Peak)
	dst.Capacity = max(dst.Capacity, src.Capacity)
	dst.Grows += src.Grows
	for op := range 2 {
		dst.Blocks[op] += src.Blocks[op]
		dst.WaitNanos[op] += src.WaitNanos[op]
		for i, n := range src.Durations[op] {
			dst.Durations[op][i] += n
		}
		t.rebinds[op] += src.rebinds[op]
	}
}

// helpConduit installs the help texts of the families Collect emits.
func helpConduit(reg *obs.Registry) {
	reg.Help("dpn_conduit_bytes_total", "Bytes moved through the conduit buffer, by op (read|write).")
	reg.Help("dpn_conduit_occupancy_bytes", "Bytes currently buffered in the conduit.")
	reg.Help("dpn_conduit_occupancy_peak_bytes", "High-water mark of buffered bytes.")
	reg.Help("dpn_conduit_capacity_bytes", "Current buffer capacity (grows on artificial deadlock).")
	reg.Help("dpn_conduit_grows_total", "Capacity growths applied to the conduit.")
	reg.Help("dpn_conduit_blocks_total", "Blocking waits on the conduit, by op (read|write).")
	reg.Help("dpn_conduit_block_seconds", "Duration of blocking waits, by op (read|write).")
	reg.Help("dpn_conduit_tokens_total", "Typed elements moved through the conduit, by op (read|write).")
	reg.Help("dpn_conduit_rebinds_total", "Transport rebinds performed on the conduit, by dir (source|sink).")
	reg.Help("dpn_conduit_wait_ns_total", "Total nanoseconds blocked on the conduit, by op (read = consumer starved, write = producer throttled by a full buffer).")
}

// sweep reads every listed channel, adding its counts to its name's
// entry in sums when sums is set, and drops each one whose pipe has
// settled, folding its counts into its name's retired total. With n.mu
// held.
func (n *Network) sweep(sums []tally) {
	live := n.channels[:0]
	var t tally
	for _, ch := range n.channels {
		var settled bool
		t.Counts, settled = ch.Pipe().Counts()
		t.rebinds = ch.cd.Rebinds()
		r := ch.rec
		if r != nil && sums != nil {
			sums[r.index].add(&t)
		}
		if !settled {
			live = append(live, ch)
			continue
		}
		if r != nil {
			if r.retired == nil {
				r.retired = new(tally)
			}
			r.retired.add(&t)
		}
	}
	clear(n.channels[len(live):])
	n.channels = live
}

// Collect implements obs.Collector: one series set per admitted channel
// name, its retired counts merged with those of its listed channels,
// read now. It sweeps as it reads.
func (n *Network) Collect(emit func(obs.Sample)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sums := make([]tally, len(n.order))
	for i, r := range n.order {
		if r.retired != nil {
			sums[i] = *r.retired
		}
	}
	n.sweep(sums)
	for i, r := range n.order {
		r.emit(emit, &sums[i])
	}
}

// emit emits the series of r's channel, whose counts are t.
func (r *record) emit(emit func(obs.Sample), t *tally) {
	s := &t.Counts
	ch := obs.L("channel", r.name)
	value := func(name string, kind obs.Kind, v int64, labels ...obs.Label) {
		emit(obs.Sample{Name: name, Kind: kind, Labels: labels, Value: v})
	}
	value("dpn_conduit_capacity_bytes", obs.KindGauge, s.Capacity, ch)
	value("dpn_conduit_occupancy_bytes", obs.KindGauge, s.Buffered, ch)
	value("dpn_conduit_occupancy_peak_bytes", obs.KindGauge, s.Peak, ch)
	value("dpn_conduit_grows_total", obs.KindCounter, s.Grows, ch)
	moved := [2]int64{s.Read, s.Written}
	for op, name := range [2]string{"read", "write"} {
		l := []obs.Label{ch, obs.L("op", name)}
		value("dpn_conduit_bytes_total", obs.KindCounter, moved[op], l...)
		value("dpn_conduit_blocks_total", obs.KindCounter, s.Blocks[op], l...)
		value("dpn_conduit_wait_ns_total", obs.KindCounter, s.WaitNanos[op], l...)
		value("dpn_conduit_tokens_total", obs.KindCounter, r.tokens[op].Load(), l...)
		emit(s.Durations[op].Sample("dpn_conduit_block_seconds", time.Duration(s.WaitNanos[op]), l))
	}
	for dir, name := range [2]string{"source", "sink"} {
		if n := t.rebinds[dir]; n > 0 {
			value("dpn_conduit_rebinds_total", obs.KindCounter, n, ch, obs.L("dir", name))
		}
	}
}
