package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromSample is one sample line of a Prometheus text exposition:
// name{labels} value.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Scrape is one parsed /metrics response. Types maps each metric family
// to its declared TYPE (counter, gauge, histogram, ...); histogram
// families contribute samples under <name>_bucket/_sum/_count.
type Scrape struct {
	Samples []PromSample
	Types   map[string]string
}

// ParseProm parses a Prometheus text-exposition document, validating
// every line: TYPE declarations, metric-name legality, label syntax,
// and numeric values. It implements the subset the repository's
// exporters emit (no HELP lines, no timestamps, no escaping beyond %q
// label values), and fails loudly on anything else — it doubles as the
// format test's checker.
func ParseProm(r io.Reader) (*Scrape, error) {
	sc := &Scrape{Types: make(map[string]string)}
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 64*1024), 16*1024*1024)
	lineNo := 0
	for br.Scan() {
		lineNo++
		line := br.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) == 4 && fields[1] == "TYPE" {
				if !validMetricName(fields[2]) {
					return nil, fmt.Errorf("line %d: TYPE declares illegal metric name %q", lineNo, fields[2])
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, fields[3])
				}
				sc.Types[fields[2]] = fields[3]
				continue
			}
			continue // other comments are legal and ignored
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		sc.Samples = append(sc.Samples, s)
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	return sc, nil
}

// parseSampleLine decodes one `name{k="v",...} value` line.
func parseSampleLine(line string) (PromSample, error) {
	var s PromSample
	rest := line
	// Metric name runs to '{' or whitespace.
	end := strings.IndexAny(rest, "{ ")
	if end < 0 {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	s.Name = rest[:end]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("illegal metric name %q", s.Name)
	}
	rest = rest[end:]
	if strings.HasPrefix(rest, "{") {
		close := strings.Index(rest, "}")
		if close < 0 {
			return s, fmt.Errorf("unterminated label block in %q", line)
		}
		labels, err := parseLabels(rest[1:close])
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		s.Labels = labels
		rest = rest[close+1:]
	}
	rest = strings.TrimSpace(rest)
	if rest == "" || strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("sample %q needs exactly one value after the name", line)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad sample value %q: %v", rest, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels decodes `k="v",k2="v2"`. Values are Go-quoted strings
// (the exporter renders them with %q).
func parseLabels(s string) (map[string]string, error) {
	out := make(map[string]string)
	for len(s) > 0 {
		eq := strings.Index(s, "=")
		if eq <= 0 {
			return nil, fmt.Errorf("bad label pair near %q", s)
		}
		key := s[:eq]
		if !validLabelName(key) {
			return nil, fmt.Errorf("illegal label name %q", key)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, fmt.Errorf("label %s value is not quoted", key)
		}
		val, rest, err := unquotePrefix(s)
		if err != nil {
			return nil, fmt.Errorf("label %s: %w", key, err)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("duplicate label %q", key)
		}
		out[key] = val
		s = strings.TrimPrefix(rest, ",")
	}
	return out, nil
}

// unquotePrefix consumes one leading Go-quoted string and returns its
// value plus the remainder.
func unquotePrefix(s string) (string, string, error) {
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' {
			i++ // skip the escaped byte
			continue
		}
		if s[i] == '"' {
			val, err := strconv.Unquote(s[:i+1])
			return val, s[i+1:], err
		}
	}
	return "", "", fmt.Errorf("unterminated quoted value %q", s)
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// Value returns the first sample with the given name, ignoring labels.
func (s *Scrape) Value(name string) (float64, bool) {
	for _, smp := range s.Samples {
		if smp.Name == name {
			return smp.Value, true
		}
	}
	return 0, false
}

// CheckHistograms validates every declared histogram family: each
// _bucket series must be cumulative (non-decreasing as le rises), must
// end in an le="+Inf" bucket, and that bucket must equal the family's
// _count sample.
func (s *Scrape) CheckHistograms() error {
	for name, typ := range s.Types {
		if typ != "histogram" {
			continue
		}
		type bucket struct {
			le  float64
			inf bool
			n   float64
		}
		var buckets []bucket
		var count float64
		var haveCount bool
		for _, smp := range s.Samples {
			switch smp.Name {
			case name + "_bucket":
				le, ok := smp.Labels["le"]
				if !ok {
					return fmt.Errorf("histogram %s has a bucket without an le label", name)
				}
				if le == "+Inf" {
					buckets = append(buckets, bucket{inf: true, n: smp.Value})
					continue
				}
				v, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("histogram %s: bad le %q", name, le)
				}
				buckets = append(buckets, bucket{le: v, n: smp.Value})
			case name + "_count":
				count, haveCount = smp.Value, true
			}
		}
		if len(buckets) == 0 {
			return fmt.Errorf("histogram %s has no buckets", name)
		}
		if !haveCount {
			return fmt.Errorf("histogram %s has no _count", name)
		}
		// Exposition order is bucket order; verify le ascends and counts
		// are cumulative.
		if !sort.SliceIsSorted(buckets, func(i, j int) bool {
			if buckets[i].inf != buckets[j].inf {
				return buckets[j].inf
			}
			return buckets[i].le < buckets[j].le
		}) {
			return fmt.Errorf("histogram %s buckets are not in ascending le order", name)
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i].n < buckets[i-1].n {
				return fmt.Errorf("histogram %s is not cumulative: bucket %d count %g < %g",
					name, i, buckets[i].n, buckets[i-1].n)
			}
		}
		last := buckets[len(buckets)-1]
		if !last.inf {
			return fmt.Errorf("histogram %s does not end in an le=\"+Inf\" bucket", name)
		}
		if last.n != count {
			return fmt.Errorf("histogram %s: +Inf bucket %g != count %g", name, last.n, count)
		}
	}
	return nil
}
