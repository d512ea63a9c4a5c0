package conduit

import (
	"dpn/internal/obs"
	"dpn/internal/stream"
)

// registerFamilies installs the conduit metric help texts in reg.
// Idempotent; called from every instrument constructor so the families
// exist before the first sample.
func registerFamilies(reg *obs.Registry) {
	if reg == nil {
		return
	}
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

// NewInstruments builds the per-conduit buffer instruments in the
// scope's registry under the canonical dpn_conduit_* names. The full
// metric-name inventory is documented in DESIGN.md ("Observability").
func NewInstruments(s *obs.Scope, name string) *stream.Instruments {
	reg := s.Registry()
	if reg == nil {
		return nil
	}
	registerFamilies(reg)
	lbl := obs.L("channel", name)
	return &stream.Instruments{
		BytesWritten:      reg.Counter("dpn_conduit_bytes_total", lbl, obs.L("op", "write")),
		BytesRead:         reg.Counter("dpn_conduit_bytes_total", lbl, obs.L("op", "read")),
		Occupancy:         reg.Gauge("dpn_conduit_occupancy_bytes", lbl),
		HighWater:         reg.Gauge("dpn_conduit_occupancy_peak_bytes", lbl),
		Capacity:          reg.Gauge("dpn_conduit_capacity_bytes", lbl),
		Grows:             reg.Counter("dpn_conduit_grows_total", lbl),
		ReadBlocks:        reg.Counter("dpn_conduit_blocks_total", lbl, obs.L("op", "read")),
		WriteBlocks:       reg.Counter("dpn_conduit_blocks_total", lbl, obs.L("op", "write")),
		ReadBlockSeconds:  reg.Histogram("dpn_conduit_block_seconds", nil, lbl, obs.L("op", "read")),
		WriteBlockSeconds: reg.Histogram("dpn_conduit_block_seconds", nil, lbl, obs.L("op", "write")),
		ReadWaitNanos:     reg.Counter("dpn_conduit_wait_ns_total", lbl, obs.L("op", "read")),
		WriteWaitNanos:    reg.Counter("dpn_conduit_wait_ns_total", lbl, obs.L("op", "write")),
		Tracer:            s.Tracer(),
		Name:              name,
	}
}

// TokenCounters returns the typed-element counters for a conduit's two
// ends (dpn_conduit_tokens_total, op=write|read). Package core bumps
// them through the ports' NoteToken hooks.
func TokenCounters(s *obs.Scope, name string) (in, out *obs.Counter) {
	reg := s.Registry()
	if reg == nil {
		return nil, nil
	}
	registerFamilies(reg)
	lbl := obs.L("channel", name)
	return reg.Counter("dpn_conduit_tokens_total", lbl, obs.L("op", "write")),
		reg.Counter("dpn_conduit_tokens_total", lbl, obs.L("op", "read"))
}
