package service

import (
	"encoding/json"
	"strings"
	"testing"

	"rofs/internal/sim"
)

// FuzzRunRequest hardens the POST /v1/runs decode path against arbitrary
// bodies: decoding mirrors handleSubmit (strict fields, then Spec-level
// validation), must never panic, and anything accepted must yield a Spec
// whose canonical key is stable and whose Config validates.
func FuzzRunRequest(f *testing.F) {
	f.Add(`{"policy":"buddy","workload":"TS","test":"app"}`)
	f.Add(`{"policy":"rbuddy","workload":"SC","test":"seq","sizes":5,"grow":1.5,"clustered":false}`)
	f.Add(`{"policy":"extent","workload":"TP","test":"alloc","fit":"best","ranges":4,"scale":"full"}`)
	f.Add(`{"policy":"fixed","workload":"TS","test":"app","block_bytes":16384,"seed":7}`)
	f.Add(`{"policy":"buddy","workload":"TS","test":"app","disks":4,"layout":"raid5","degraded":true}`)
	f.Add(`{"policy":"buddy","workload":"TS","test":"app","disks":4,"layout":"raid5",` +
		`"faults":{"fail_at_ms":3000,"fail_drive":1,"transient_prob":0.001,"rebuild":true,"rebuild_chunk_bytes":4194304}}`)
	f.Add(`{"policy":"buddy","workload":"TS","test":"app","faults":{"transient_prob":2}}`)
	f.Add(`{"policy":"buddy","workload":"TS","test":"app","faults":{"mttf_ms":-1}}`)
	f.Add(`{`)
	f.Add(`[]`)
	f.Add(`{"policy":"buddy","workload":"TS","test":"app","blocksize":17}`)
	// Every run description the CLIs and the server must agree on,
	// including each one the parser rejects.
	for _, row := range parityRows {
		f.Add(row.body)
	}
	for _, field := range negativeFields {
		f.Add(field.body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var req RunRequest
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		sp, err := req.Spec()
		if err != nil {
			return
		}
		// Accepted requests must build a deterministic, valid Spec.
		if sp.Key() != sp.Key() {
			t.Fatal("spec key not stable")
		}
		if sp.Faults.Enabled() {
			if err := sp.Faults.Validate(); err != nil {
				t.Fatalf("accepted request carries an invalid fault scenario: %v", err)
			}
		}
		cfg := sp.Config()
		if cfg.Policy.Kind == "" || cfg.Workload.Name == "" {
			t.Fatalf("accepted request built an incomplete config: %+v", cfg)
		}
		// Its knobs must not fail at run time: the disk and the policy
		// build.
		if err := cfg.Disk.Validate(); err != nil {
			t.Fatalf("accepted request carries an invalid disk: %v", err)
		}
		if _, err := cfg.Policy.Build(1<<16, cfg.Disk.UnitBytes, sim.NewRNG(1)); err != nil {
			t.Fatalf("accepted request carries an unbuildable policy: %v", err)
		}
	})
}
