package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// compareFiles prints, per workload and end-to-end metric, both
// medians, the change, the bound and a verdict, one row each:
//
//	ok          b is no worse than a by more than the bound
//	worse       b is worse than a by more than the bound
//	unresolved  either median is itself uncertain by more than the bound
//	            (see spread), so a change of that size cannot be told
//	info        a latency, which is reported but bounds nothing
//
// It reports whether any row was worse or unresolved.
func compareFiles(w io.Writer, pathA, pathB string) (bad bool, err error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tchange\tbound\tverdict")
	for _, ra := range a.Runs {
		if ra.Trace {
			continue
		}
		rb := b.find(ra.Workload)
		if rb == nil {
			return false, fmt.Errorf("%s has no untraced run of %s", pathB, ra.Workload)
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			change := (vb - va) / va
			worse := change
			if d.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case spread(ra, d.Name) > d.Bound || spread(rb, d.Name) > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "worse"
			}
			bad = bad || verdict != "ok"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n",
				ra.Workload, d.Name, va, vb, change*100, d.Bound*100, verdict)
		}
		for _, name := range latencyMetrics {
			va, vb := ra.Metrics[name], rb.Metrics[name]
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\tnone\tinfo\n", ra.Workload, name, va, vb, (vb-va)/va*100)
		}
		if fa, fb := failedShare(ra), failedShare(rb); fb > fa {
			bad = true
			fmt.Fprintf(tw, "%s\tfailed_share\t%.4g\t%.4g\t\tany\tworse\n", ra.Workload, fa, fb)
		}
	}
	return bad, tw.Flush()
}

// spread is how far a run's median could be off, as a share of the
// median: the half-width of the usual 95 % interval of a median,
// 1.57 · IQR / √n, over the samples behind it (rounds, set-ups, latency
// windows). It is 0 for a metric reported from a single reading.
func spread(r *report, metric string) float64 {
	s, ok := r.Detail[metric]
	if !ok || s.Median == 0 || s.N == 0 {
		return 0
	}
	return 1.57 * (s.Q3 - s.Q1) / math.Sqrt(float64(s.N)) / s.Median
}

func failedShare(r *report) float64 {
	return float64(r.Failed) / float64(max(r.Attempted, 1))
}

func (d *document) find(workload string) *report {
	for _, r := range d.Runs {
		if r.Workload == workload && !r.Trace {
			return r
		}
	}
	return nil
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}
