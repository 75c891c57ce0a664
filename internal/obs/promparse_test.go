package obs

import (
	"strings"
	"testing"
)

const sampleExposition = `# TYPE rofs_service_runs_admitted counter
rofs_service_runs_admitted{component="rofs-server"} 3
# TYPE rofs_service_queue_depth gauge
rofs_service_queue_depth{component="rofs-server"} 0
# TYPE rofs_service_queue_wait_ms histogram
rofs_service_queue_wait_ms_bucket{component="rofs-server",le="1"} 1
rofs_service_queue_wait_ms_bucket{component="rofs-server",le="10"} 2
rofs_service_queue_wait_ms_bucket{component="rofs-server",le="+Inf"} 3
rofs_service_queue_wait_ms_sum{component="rofs-server"} 14.5
rofs_service_queue_wait_ms_count{component="rofs-server"} 3
`

func TestParsePromWellFormed(t *testing.T) {
	sc, err := ParseProm(strings.NewReader(sampleExposition))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sc.Samples); got != 7 {
		t.Fatalf("parsed %d samples, want 7", got)
	}
	if sc.Types["rofs_service_queue_wait_ms"] != "histogram" {
		t.Errorf("histogram TYPE missing: %v", sc.Types)
	}
	v, ok := sc.Value("rofs_service_runs_admitted")
	if !ok || v != 3 {
		t.Errorf("Value(runs_admitted) = %v, %v", v, ok)
	}
	if err := sc.CheckHistograms(); err != nil {
		t.Errorf("CheckHistograms: %v", err)
	}
	if sc.Samples[0].Labels["component"] != "rofs-server" {
		t.Errorf("labels = %v", sc.Samples[0].Labels)
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for name, doc := range map[string]string{
		"bad-name":        "9leading_digit 1\n",
		"no-value":        "rofs_ok\n",
		"two-values":      "rofs_ok 1 2\n",
		"bad-value":       "rofs_ok one\n",
		"bad-label":       `rofs_ok{0bad="x"} 1` + "\n",
		"unquoted-label":  `rofs_ok{a=b} 1` + "\n",
		"unclosed-labels": `rofs_ok{a="b" 1` + "\n",
		"duplicate-label": `rofs_ok{a="b",a="c"} 1` + "\n",
		"bad-type":        "# TYPE rofs_ok matrix\n",
		"bad-type-name":   "# TYPE 9bad counter\n",
		"unclosed-quote":  `rofs_ok{a="b} 1` + "\n",
	} {
		if _, err := ParseProm(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: ParseProm accepted %q", name, doc)
		}
	}
}

func TestCheckHistogramsCatchesViolations(t *testing.T) {
	for name, doc := range map[string]string{
		"non-cumulative": `# TYPE rofs_h histogram
rofs_h_bucket{le="1"} 5
rofs_h_bucket{le="2"} 3
rofs_h_bucket{le="+Inf"} 5
rofs_h_sum 1
rofs_h_count 5
`,
		"no-inf": `# TYPE rofs_h histogram
rofs_h_bucket{le="1"} 5
rofs_h_sum 1
rofs_h_count 5
`,
		"count-mismatch": `# TYPE rofs_h histogram
rofs_h_bucket{le="1"} 5
rofs_h_bucket{le="+Inf"} 5
rofs_h_sum 1
rofs_h_count 6
`,
		"unsorted-le": `# TYPE rofs_h histogram
rofs_h_bucket{le="2"} 1
rofs_h_bucket{le="1"} 1
rofs_h_bucket{le="+Inf"} 1
rofs_h_sum 1
rofs_h_count 1
`,
		"no-count": `# TYPE rofs_h histogram
rofs_h_bucket{le="+Inf"} 1
`,
	} {
		sc, err := ParseProm(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if err := sc.CheckHistograms(); err == nil {
			t.Errorf("%s: CheckHistograms accepted a broken histogram", name)
		}
	}
}
