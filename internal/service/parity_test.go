package service

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"strings"
	"testing"

	"rofs/internal/runner"
)

// parityRows are run descriptions spelled twice: as rofsim/rofs-client
// flags (bound by AddRunFlags with the CLI defaults) and as a POST
// /v1/runs body. A valid row must build the same Spec key both ways; an
// invalid row must fail both ways with exactly err.
var parityRows = []struct {
	name, args, body string
	err              string // "" for a valid row
	keyHas           string // valid rows: a substring the key must contain
}{
	{name: "buddy", args: "-policy buddy -workload TS -test app",
		body: `{"policy":"buddy","workload":"TS","test":"app"}`, keyHas: "|seed=42|"},
	{name: "seed-0", args: "-seed 0 -policy buddy -workload TS -test app",
		body: `{"policy":"buddy","workload":"TS","test":"app","seed":0}`, keyHas: "|seed=0|"},
	{name: "rbuddy-defaults", args: "-workload TS -test alloc",
		body: `{"policy":"rbuddy","workload":"TS","test":"alloc"}`},
	{name: "rbuddy-knobs", args: "-policy rbuddy -sizes 3 -grow 1.5 -clustered=false -workload SC -test seq",
		body: `{"policy":"rbuddy","workload":"SC","test":"seq","sizes":3,"grow":1.5,"clustered":false}`},
	{name: "extent-full", args: "-policy extent -fit best -ranges 4 -workload TP -test alloc -scale full",
		body: `{"policy":"extent","workload":"TP","test":"alloc","fit":"best","ranges":4,"scale":"full"}`},
	{name: "fixed-stripe", args: "-policy fixed -block 16K -stripe 48K -seed 7 -workload TP -test app -max-sim 15000",
		body: `{"policy":"fixed","workload":"TP","test":"app","block_bytes":16384,"stripe_bytes":49152,"seed":7,"max_sim_ms":15000}`},
	{name: "fixed-block-0-is-default", args: "-policy fixed -block 0 -workload TS -test app",
		body: `{"policy":"fixed","workload":"TS","test":"app","block_bytes":0}`, keyHas: "BlockBytes:4096"},
	{name: "raid5-faults", args: "-policy buddy -workload TS -test app -disks 4 -layout raid5 " +
		"-fail-at 5000 -fail-drive 1 -transient 0.001 -rebuild",
		body: `{"policy":"buddy","workload":"TS","test":"app","disks":4,"layout":"raid5",` +
			`"faults":{"fail_at_ms":5000,"fail_drive":1,"transient_prob":0.001,"rebuild":true}}`},
	{name: "pre-fail-raid5", args: "-policy buddy -workload TS -test app -disks 4 -layout raid5 -pre-fail -fail-drive 2",
		body: `{"policy":"buddy","workload":"TS","test":"app","disks":4,"layout":"raid5","faults":{"pre_fail":true,"fail_drive":2}}`},
	{name: "fleet", args: "-policy buddy -workload TP -test app -instances 2 -routing least -snapshot-ms 250 " +
		"-rate 200 -arrival-clients 64",
		body: `{"policy":"buddy","workload":"TP","test":"app","cluster":{"instances":2,"routing":"least","snapshot_ms":250},` +
			`"arrivals":{"rate_per_s":200,"clients":64}}`},
	{name: "compaction", args: "-policy buddy -workload TP -test app -compact leveled -compact-fanout 8",
		body: `{"policy":"buddy","workload":"TP","test":"app","compaction":{"policy":"leveled","fanout":8}}`},

	// Each of these once panicked, ran something else, or failed only at
	// run time on at least one front end.
	{name: "sizes-7", args: "-sizes 7 -workload TS -test alloc",
		body: `{"policy":"rbuddy","workload":"TS","test":"alloc","sizes":7}`,
		err:  "rbuddy wants 2-5 block sizes, got 7"},
	{name: "fit-banana", args: "-policy extent -fit banana -workload TS -test alloc",
		body: `{"policy":"extent","workload":"TS","test":"alloc","fit":"banana"}`,
		err:  `unknown fit "banana" (want first or best)`},
	{name: "scale-foo", args: "-policy buddy -scale foo -workload TS -test app",
		body: `{"policy":"buddy","workload":"TS","test":"app","scale":"foo"}`,
		err:  `unknown scale "foo" (want full or bench)`},
	// 4.5K in bytes; the flag text "4.5K" itself is a syntax error (see
	// TestCLIRejectsMalformedSizes).
	{name: "block-4.5K", args: "-policy fixed -block 4608 -workload TS -test app",
		body: `{"policy":"fixed","workload":"TS","test":"app","block_bytes":4608}`,
		err:  "block_bytes must be a positive multiple of the 1024-byte disk unit, got 4608"},
	{name: "negative-disks", args: "-policy buddy -workload TS -test app -disks -2",
		body: `{"policy":"buddy","workload":"TS","test":"app","disks":-2}`,
		err:  "disks must be non-negative, got -2"},
	{name: "negative-max-sim", args: "-policy buddy -workload TS -test app -max-sim -5",
		body: `{"policy":"buddy","workload":"TS","test":"app","max_sim_ms":-5}`,
		err:  "max_sim_ms must be non-negative, got -5"},
	{name: "grow-below-1", args: "-grow 0.5 -workload TS -test alloc",
		body: `{"policy":"rbuddy","workload":"TS","test":"alloc","grow":0.5}`,
		err:  "rbuddy grow factor must be >= 1, got 0.5"},
	{name: "grow-negative", args: "-grow -1 -workload TS -test alloc",
		body: `{"policy":"rbuddy","workload":"TS","test":"alloc","grow":-1}`,
		err:  "rbuddy grow factor must be >= 1, got -1"},
	{name: "rate-with-alloc", args: "-policy buddy -workload TS -test alloc -rate 100",
		body: `{"policy":"buddy","workload":"TS","test":"alloc","arrivals":{"rate_per_s":100}}`,
		err:  `open-loop arrivals require the app test, not "alloc"`},
	{name: "compact-with-seq", args: "-policy buddy -workload TP -test seq -compact tiered",
		body: `{"policy":"buddy","workload":"TP","test":"seq","compaction":{"policy":"tiered"}}`,
		err:  `the compaction overlay requires the app test, not "seq"`},
	{name: "pre-fail-striped", args: "-policy buddy -workload TS -test app -pre-fail",
		body: `{"policy":"buddy","workload":"TS","test":"app","faults":{"pre_fail":true}}`,
		err:  "degraded mode requires the raid5 layout"},
	// The CLIs spell the legacy "degraded" field -pre-fail.
	{name: "degraded-striped", args: "-policy buddy -workload TS -test app -pre-fail",
		body: `{"policy":"buddy","workload":"TS","test":"app","degraded":true}`,
		err:  "degraded mode requires the raid5 layout"},
	{name: "fail-at-striped", args: "-policy buddy -workload TS -test app -fail-at 5000",
		body: `{"policy":"buddy","workload":"TS","test":"app","faults":{"fail_at_ms":5000}}`,
		err:  "drive-failure faults require the raid5 layout"},
	{name: "fail-drive-outside", args: "-policy buddy -workload TS -test app -disks 4 -layout raid5 -fail-at 5000 -fail-drive 4",
		body: `{"policy":"buddy","workload":"TS","test":"app","disks":4,"layout":"raid5","faults":{"fail_at_ms":5000,"fail_drive":4}}`,
		err:  "fail_drive 4 is outside the 4-drive array"},
	{name: "cluster-with-seq", args: "-policy buddy -workload TS -test seq -instances 2",
		body: `{"policy":"buddy","workload":"TS","test":"seq","cluster":{"instances":2}}`,
		err:  `cluster mode requires the app test, not "seq"`},
	{name: "negative-rate", args: "-policy buddy -workload TP -test app -rate -5",
		body: `{"policy":"buddy","workload":"TP","test":"app","arrivals":{"rate_per_s":-5}}`,
		err:  `workload "TP": poisson arrivals need rate_per_s > 0, got -5`},
	{name: "negative-instances", args: "-policy buddy -workload TP -test app -instances -1",
		body: `{"policy":"buddy","workload":"TP","test":"app","cluster":{"instances":-1}}`,
		err:  "cluster: Instances -1 must be >= 0"},
	{name: "mirrored-odd", args: "-policy buddy -workload TS -test app -layout mirrored -disks 3",
		body: `{"policy":"buddy","workload":"TS","test":"app","layout":"mirrored","disks":3}`,
		err:  "disk: mirrored layout needs an even disk count, got 3"},
	{name: "stripe-below-unit", args: "-policy buddy -workload TS -test app -stripe 1000",
		body: `{"policy":"buddy","workload":"TS","test":"app","stripe_bytes":1000}`,
		err:  "disk: stripe unit 1000 smaller than disk unit 1024"},
	{name: "ranges-9", args: "-policy extent -ranges 9 -workload TS -test alloc",
		body: `{"policy":"extent","workload":"TS","test":"alloc","ranges":9}`,
		err:  "workload: no 9-range extent configuration"},
	{name: "unknown-policy", args: "-policy slab -workload TS -test app",
		body: `{"policy":"slab","workload":"TS","test":"app"}`,
		err:  `unknown policy "slab" (want buddy, rbuddy, extent, or fixed)`},
	{name: "unknown-test", args: "-policy buddy -workload TS -test bogus",
		body: `{"policy":"buddy","workload":"TS","test":"bogus"}`,
		err:  `unknown test "bogus" (want alloc, app, seq, or aging)`},
}

// cliSpec builds a row's Spec the way rofsim does.
func cliSpec(t *testing.T, args string) (RunRequest, runner.Spec, error) {
	t.Helper()
	fs := flag.NewFlagSet("rofsim", flag.ContinueOnError)
	rf := AddRunFlags(fs, DefaultRequest())
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatalf("flags %q: %v", args, err)
	}
	req, err := rf.Request()
	if err != nil {
		return req, runner.Spec{}, err
	}
	sp, err := req.Spec()
	return req, sp, err
}

// bodySpec builds a body's Spec the way handleSubmit does.
func bodySpec(body string) (runner.Spec, error) {
	var req RunRequest
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return runner.Spec{}, err
	}
	return req.Spec()
}

// TestCLIAndHTTPParity proves the CLIs and the server share one parser:
// every row builds the same Spec, or fails with the same message, from
// its flags, from its JSON body, and from the CLI request as rofs-client
// marshals it; and the server answers every invalid row with a 400
// carrying that message, admitting nothing.
func TestCLIAndHTTPParity(t *testing.T) {
	_, c := newTestServer(t, Options{Jobs: 1})
	for _, row := range parityRows {
		t.Run(row.name, func(t *testing.T) {
			req, flags, cliErr := cliSpec(t, row.args)
			body, httpErr := bodySpec(row.body)
			if row.err == "" {
				if cliErr != nil || httpErr != nil {
					t.Fatalf("valid row rejected: cli %v, http %v", cliErr, httpErr)
				}
				if flags.Key() != body.Key() {
					t.Fatalf("keys differ:\ncli:  %s\nhttp: %s", flags.Key(), body.Key())
				}
				if !strings.Contains(flags.Key(), row.keyHas) {
					t.Errorf("key %s lacks %q", flags.Key(), row.keyHas)
				}
				wire, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				sent, err := bodySpec(string(wire))
				if err != nil || sent.Key() != flags.Key() {
					t.Errorf("the CLI request as sent (%s) builds %q, %v; want %q", wire, sent.Key(), err, flags.Key())
				}
				return
			}
			if cliErr == nil || cliErr.Error() != row.err {
				t.Errorf("cli error = %v, want %q", cliErr, row.err)
			}
			if httpErr == nil || httpErr.Error() != row.err {
				t.Errorf("body error = %v, want %q", httpErr, row.err)
			}
			resp, err := http.Post(c.BaseURL+"/v1/runs", "application/json", strings.NewReader(row.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e errorJSON
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || e.Error != row.err {
				t.Errorf("POST = %d %q, want 400 %q", resp.StatusCode, e.Error, row.err)
			}
		})
	}
	if runs, _ := c.List(context.Background()); len(runs) != 0 {
		t.Errorf("invalid submissions were admitted: %d runs", len(runs))
	}
}

// TestCLIRejectsMalformedSizes covers flag text with no JSON spelling:
// sizes the old per-command parsers read as a prefix, a negative, or a
// wrapped number.
func TestCLIRejectsMalformedSizes(t *testing.T) {
	for _, args := range []string{
		"-policy fixed -block 4.5K",
		"-policy fixed -block 4xK",
		"-stripe -24K",
		"-stripe 99999999999999999999K",
	} {
		if _, _, err := cliSpec(t, args+" -workload TS -test app"); err == nil {
			t.Errorf("%s: accepted", args)
		}
	}
}

// negativeFields are bodies with a field the CLIs cannot make negative
// (sizes are unsigned flag text; -timeout is rofs-client's own), each with
// the message that must name it.
var negativeFields = []struct{ body, err string }{
	{`{"policy":"buddy","workload":"TS","test":"app","stripe_bytes":-24576}`,
		"stripe_bytes must be non-negative, got -24576"},
	{`{"policy":"buddy","workload":"TS","test":"app","timeout_ms":-1}`,
		"timeout_ms must be non-negative, got -1"},
	{`{"policy":"buddy","workload":"TS","test":"app","stable_windows":-1}`,
		"stable_windows must be non-negative, got -1"},
	{`{"policy":"fixed","workload":"TS","test":"app","block_bytes":-1}`,
		"block_bytes must be a positive multiple of the 1024-byte disk unit, got -1"},
}

func TestHTTPRejectsNegativeFields(t *testing.T) {
	for _, f := range negativeFields {
		if _, err := bodySpec(f.body); err == nil || err.Error() != f.err {
			t.Errorf("%s: error = %v, want %q", f.body, err, f.err)
		}
	}
}

// TestSeedZeroSurvivesTheWire checks both halves of the seed convention:
// an absent seed means 42, and an explicit 0 (a -seed 0 flag or SetSeed)
// is marshaled so the server runs seed 0, not 42.
func TestSeedZeroSurvivesTheWire(t *testing.T) {
	var req RunRequest
	req.SetSeed(0)
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"seed":0`) {
		t.Fatalf("explicit seed 0 dropped on the wire: %s", b)
	}
	b, err = json.Marshal(RunRequest{Policy: "buddy"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"seed"`) {
		t.Errorf("unset seed sent: %s", b)
	}
}
