package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteProm writes the registry contents in the Prometheus text
// exposition format (version 0.0.4). base labels, if given, are
// injected into every series at write time — this is how a node label
// is applied uniformly without baking it into every instrument.
func (r *Registry) WriteProm(w io.Writer, base ...Label) error {
	bw := bufio.NewWriter(w)
	samples := r.Samples()
	r.mu.Lock()
	help := make(map[string]string, len(r.families))
	for name, f := range r.families {
		help[name] = f.help
	}
	r.mu.Unlock()

	var last string
	for _, s := range samples {
		if s.Name != last {
			if h := help[s.Name]; h != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", s.Name, escapeHelp(h))
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.Name, s.Kind)
			last = s.Name
		}
		labels := append(append([]Label(nil), base...), s.Labels...)
		switch s.Kind {
		case KindHistogram:
			for _, b := range s.Buckets {
				le := "+Inf"
				if !math.IsInf(b.UpperBound, 1) {
					le = formatFloat(b.UpperBound)
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", s.Name,
					renderLabels(append(append([]Label(nil), labels...), L("le", le))), b.Count)
			}
			fmt.Fprintf(bw, "%s_sum%s %s\n", s.Name, renderLabels(labels), formatFloat(s.Sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", s.Name, renderLabels(labels), s.Count)
		default:
			fmt.Fprintf(bw, "%s%s %d\n", s.Name, renderLabels(labels), s.Value)
		}
	}
	return bw.Flush()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
