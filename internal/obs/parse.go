package obs

import (
	"math"
	"strconv"
	"strings"
)

// ParseProm parses the subset of the Prometheus text exposition format
// that WriteProm emits back into samples: counter and gauge series
// lines plus histogram _bucket/_sum/_count triples, reconstructed into
// one Sample per series with its cumulative Buckets (so Quantile works
// on scraped text exactly as it does on Registry.Samples output).
// Unparseable lines are skipped — the parser exists for the dpntop
// scrape loop, the soak driver's percentile report, and golden tests,
// not as a general Prometheus client. Kinds come from the # TYPE
// headers; series of families without one parse as counters.
func ParseProm(text string) []Sample {
	kinds := make(map[string]Kind)
	var out []Sample
	// histogram samples merge their _sum and _count lines; index holds
	// the position in out of the sample for (family, labels).
	index := make(map[string]int)

	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) == 4 && fields[1] == "TYPE" {
				switch fields[3] {
				case "counter":
					kinds[fields[2]] = KindCounter
				case "gauge":
					kinds[fields[2]] = KindGauge
				case "histogram":
					kinds[fields[2]] = KindHistogram
				}
			}
			continue
		}
		name, labels, value, ok := parsePromLine(line)
		if !ok {
			continue
		}
		// Histogram component lines reduce to one sample per series.
		if base, comp := histogramBase(name, kinds); base != "" {
			var bound float64
			if comp == "bucket" {
				le := labelValue(labels, "le")
				if le == "+Inf" {
					bound = math.Inf(1)
				} else {
					b, err := strconv.ParseFloat(le, 64)
					if err != nil {
						continue
					}
					bound = b
				}
			}
			labels = dropLabel(labels, "le")
			key := base + "\x00" + string(appendLabelKey(nil, labels))
			i, seen := index[key]
			if !seen {
				i = len(out)
				index[key] = i
				out = append(out, Sample{Name: base, Kind: KindHistogram, Labels: labels})
			}
			switch comp {
			case "bucket":
				// WriteProm emits buckets in ascending bound order, so
				// appending rebuilds the cumulative sequence.
				out[i].Buckets = append(out[i].Buckets, Bucket{UpperBound: bound, Count: int64(value)})
			case "sum":
				out[i].Sum = value
			default:
				out[i].Count = int64(value)
			}
			continue
		}
		kind := kinds[name] // zero value is KindCounter
		out = append(out, Sample{Name: name, Kind: kind, Labels: labels, Value: int64(value)})
	}
	return out
}

// histogramBase reports whether name is a _bucket/_sum/_count component
// of a known histogram family, returning the family name and component.
func histogramBase(name string, kinds map[string]Kind) (base, comp string) {
	for _, c := range []string{"bucket", "sum", "count"} {
		suffix := "_" + c
		if strings.HasSuffix(name, suffix) {
			b := strings.TrimSuffix(name, suffix)
			if kinds[b] == KindHistogram {
				return b, c
			}
		}
	}
	return "", ""
}

func labelValue(labels []Label, key string) string {
	for _, l := range labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

func dropLabel(labels []Label, key string) []Label {
	out := labels[:0]
	for _, l := range labels {
		if l.Key != key {
			out = append(out, l)
		}
	}
	return out
}

// parsePromLine splits one series line into name, labels, and value.
func parsePromLine(line string) (name string, labels []Label, value float64, ok bool) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		rest = rest[i+1:]
		labels, rest, ok = parsePromLabels(rest)
		if !ok {
			return "", nil, 0, false
		}
	} else if i := strings.IndexByte(rest, ' '); i >= 0 {
		name, rest = rest[:i], rest[i:]
	} else {
		return "", nil, 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return "", nil, 0, false
	}
	return name, labels, v, true
}

// parsePromLabels parses `key="value",...}` (the opening brace already
// consumed), honoring the \\, \", and \n escapes WriteProm emits, and
// returns the remainder of the line after the closing brace.
func parsePromLabels(s string) (labels []Label, rest string, ok bool) {
	for {
		s = strings.TrimLeft(s, ", ")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], true
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			return nil, "", false
		}
		key := s[:eq]
		s = s[eq+2:]
		var b strings.Builder
		for {
			i := strings.IndexAny(s, `"\`)
			if i < 0 {
				return nil, "", false
			}
			b.WriteString(s[:i])
			if s[i] == '"' {
				s = s[i+1:]
				break
			}
			// escape sequence
			if len(s) < i+2 {
				return nil, "", false
			}
			switch s[i+1] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(s[i+1])
			}
			s = s[i+2:]
		}
		labels = append(labels, Label{Key: key, Value: b.String()})
	}
}
