package conduit

import (
	"sync"
	"sync/atomic"
	"time"

	"dpn/internal/obs"
	"dpn/internal/stream"
)

// collector is the one obs.Collector of the conduits instrumented in a
// registry. Instrument appends a conduit to it, looking no series up,
// and a scrape reads the counts each conduit keeps where they happen.
// The metric-name inventory is in DESIGN.md ("Observability").
type collector struct {
	mu      sync.Mutex
	help    sync.Once
	live    []tracked
	sweepAt int // add sweeps the live list at this length
	names   map[string]*record
	order   []*record // the records in names, first registered first
}

// tracked is one live conduit: its buffer and its name's record.
type tracked struct {
	buf *stream.Pipe
	rec *record
}

// record is what the conduits of one channel name share. Ports and
// rebinds add to tokens and rebinds outside the buffer's lock, so these
// are kept per name, where folding a conduit loses none. retired holds
// the folded counts of the name's settled conduits: counters add and
// gauges take the largest, so a reused name reads as one channel.
type record struct {
	name    string
	index   int             // in collector.order
	tokens  [2]atomic.Int64 // by op: [0] read, [1] write
	rebinds [2]atomic.Int64 // by dir: [0] source, [1] sink
	retired *stream.Counts
}

// collectorOf returns reg's conduit collector and the registry's series
// cap now (0: none), the first time installing the conduit metric help
// texts.
func collectorOf(reg *obs.Registry) (*collector, int) {
	col, limit := reg.Collector("conduit", func() obs.Collector {
		return &collector{sweepAt: 64, names: make(map[string]*record)}
	})
	c := col.(*collector)
	c.help.Do(func() {
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
	})
	return c, limit
}

// add tracks buf under name and returns the name's record. A new name
// past the registry's series cap (limit, 0: none) gets no record and
// buf is not tracked: like a series past the cap, it is never exposed.
// Like core.Network's channel list, the live list is swept when it has
// doubled, which keeps adding amortised O(1).
func (c *collector) add(name string, buf *stream.Pipe, limit int) *record {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.names[name]
	if rec == nil {
		if limit > 0 && len(c.order) >= limit {
			return nil
		}
		rec = &record{name: name, index: len(c.order)}
		c.names[name] = rec
		c.order = append(c.order, rec)
	}
	if len(c.live) >= c.sweepAt {
		c.sweep(nil)
		c.sweepAt = max(2*len(c.live), 64)
	}
	c.live = append(c.live, tracked{buf, rec})
	return rec
}

// sweep reads every live conduit, handing its counts to read if read is
// set, and folds each one that has settled into its name's record,
// dropping it from the live list. With c.mu held.
func (c *collector) sweep(read func(*record, *stream.Counts)) {
	live := c.live[:0]
	var n stream.Counts
	for _, t := range c.live {
		var settled bool
		n, settled = t.buf.Counts()
		if read != nil {
			read(t.rec, &n)
		}
		if !settled {
			live = append(live, t)
			continue
		}
		if t.rec.retired == nil {
			t.rec.retired = new(stream.Counts)
		}
		merge(t.rec.retired, &n)
	}
	clear(c.live[len(live):])
	c.live = live
}

// merge adds src's counts to dst's, and raises dst's gauges to src's.
func merge(dst, src *stream.Counts) {
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
	}
}

// Collect emits one series set per name: its retired counts merged
// with those of its live conduits, read now. It sweeps as it reads.
func (c *collector) Collect(emit func(obs.Sample)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sums := make([]stream.Counts, len(c.order))
	for i, r := range c.order {
		if r.retired != nil {
			sums[i] = *r.retired
		}
	}
	c.sweep(func(r *record, n *stream.Counts) { merge(&sums[r.index], n) })
	for i, r := range c.order {
		r.emit(emit, &sums[i])
	}
}

// emit emits the series of r's channel, whose buffer counts are s.
func (r *record) emit(emit func(obs.Sample), s *stream.Counts) {
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
		if n := r.rebinds[dir].Load(); n > 0 {
			value("dpn_conduit_rebinds_total", obs.KindCounter, n, ch, obs.L("dir", name))
		}
	}
}
