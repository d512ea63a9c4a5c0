package viz

import (
	"io"
	"testing"

	"dpn/internal/obs"
)

// countingCollector counts the scrapes that read it.
type countingCollector struct{ calls int }

func (c *countingCollector) Collect(func(obs.Sample)) { c.calls++ }

// TestStatsRenderFromOneScrape: a status line and a summary table each
// read the registry once. A scrape walks and sweeps the network's
// channels, so a rendering that scraped per column paid that per
// column.
func TestStatsRenderFromOneScrape(t *testing.T) {
	reg := obs.NewRegistry()
	col := &countingCollector{}
	reg.SetCollector(col)
	StatsLine(reg)
	if col.calls != 1 {
		t.Errorf("StatsLine scraped %d times, want 1", col.calls)
	}
	col.calls = 0
	StatsTable(io.Discard, reg)
	if col.calls != 1 {
		t.Errorf("StatsTable scraped %d times, want 1", col.calls)
	}
}
