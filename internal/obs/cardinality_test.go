package obs

import (
	"fmt"
	"strings"
	"testing"
)

// seriesOf counts the exposition series of one family.
func seriesOf(r *Registry, name string) int {
	n := 0
	for _, s := range r.Samples() {
		if s.Name == name {
			n++
		}
	}
	return n
}

// dropped reads dpn_obs_dropped_series_total.
func dropped(r *Registry) int64 {
	for _, s := range r.Samples() {
		if s.Name == "dpn_obs_dropped_series_total" {
			return s.Value
		}
	}
	return 0
}

// The cardinality guard caps the label sets of one family: series
// beyond the limit come back as detached instruments (safe to use,
// never exported) and are accounted in dpn_obs_dropped_series_total.
func TestCardinalityGuardDropsBeyondLimit(t *testing.T) {
	r := NewRegistry()
	r.SetSeriesLimit(2)
	for i := 0; i < 5; i++ {
		r.Counter("chatty_total", L("id", fmt.Sprint(i))).Inc() // detached beyond the cap, still safe
	}
	if got := seriesOf(r, "chatty_total"); got != 2 {
		t.Fatalf("exported series = %d, want 2", got)
	}
	if got := dropped(r); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	var found bool
	for _, s := range r.Samples() {
		if s.Name == "dpn_obs_dropped_series_total" {
			found = true
			if s.Value != 3 {
				t.Fatalf("dropped sample = %d, want 3", s.Value)
			}
		}
	}
	if !found {
		t.Fatal("dpn_obs_dropped_series_total missing from samples")
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dpn_obs_dropped_series_total 3") {
		t.Fatalf("exposition missing dropped-series counter:\n%s", b.String())
	}
}

// The limit is per family, not global: a second family still admits its
// own series, and re-requesting an existing label set returns the live
// instrument rather than dropping.
func TestCardinalityGuardPerFamily(t *testing.T) {
	r := NewRegistry()
	r.SetSeriesLimit(1)
	a := r.Counter("fam_a_total", L("k", "x"))
	a.Add(5)
	r.Counter("fam_b_total", L("k", "y")).Inc()
	if got := seriesOf(r, "fam_b_total"); got != 1 {
		t.Fatalf("fam_b series = %d: other family affected by fam_a's population", got)
	}
	if got := r.Counter("fam_a_total", L("k", "x")); got != a {
		t.Fatal("existing series must be returned, not dropped")
	}
	r.Counter("fam_a_total", L("k", "z")).Inc() // beyond the cap: detached
	if got := seriesOf(r, "fam_a_total"); got != 1 {
		t.Fatalf("fam_a series = %d, want 1", got)
	}
	if dropped(r) != 1 {
		t.Fatalf("dropped = %d, want 1", dropped(r))
	}
}

func TestCardinalityGuardDisabled(t *testing.T) {
	r := NewRegistry()
	r.SetSeriesLimit(0)
	for i := 0; i < 3*DefaultSeriesLimit; i++ {
		r.Counter("wide_total", L("id", fmt.Sprint(i))).Inc()
	}
	if got := seriesOf(r, "wide_total"); got != 3*DefaultSeriesLimit {
		t.Fatalf("series = %d, want %d", got, 3*DefaultSeriesLimit)
	}
	if dropped(r) != 0 {
		t.Fatal("dropped count moved with the guard disabled")
	}
}
