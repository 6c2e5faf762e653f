package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"l2bm/internal/faults"
	"l2bm/internal/sim"
)

// digestSpecs are the pinned points of TestResultDigestsPinned: one per
// runner strategy and per arming path (incast, flight recorder, fault
// plan, auditor), each small enough that the whole set runs in seconds.
func digestSpecs() map[string]HybridSpec {
	faultPlan := func() *FaultSpec {
		return &FaultSpec{Plan: faults.Plan{
			FlapRate:     2000,
			FlapDowntime: 50 * sim.Microsecond,
			FlapWindow:   2 * sim.Millisecond,
			BER:          1e-6,
			PFCLossRate:  0.02,
		}}
	}
	incast := func() *IncastSpec {
		return &IncastSpec{Fanout: 4, RequestBytes: 200_000, QueryRate: 5000}
	}
	traced := func() *TraceSpec {
		return &TraceSpec{SampleEvery: 100 * sim.Microsecond, Capacity: 1 << 16}
	}
	return map[string]HybridSpec{
		"clean-l2bm": {Name: "digest-clean", Policy: "L2BM", Scale: ScaleTiny,
			RDMALoad: 0.4, TCPLoad: 0.4},
		"dt-incast-trace": {Name: "digest-incast", Policy: "DT", Scale: ScaleTiny,
			RDMALoad: 0.4, TCPLoad: 0.3, Incast: incast(), Trace: traced()},
		"faults-audit": {Name: "digest-faults", Policy: "L2BM", Scale: ScaleTiny,
			RDMALoad: 0.4, TCPLoad: 0.4, Faults: faultPlan(), Audit: &AuditSpec{}},
		"shards2-clean": {Name: "digest-clean", Policy: "L2BM", Scale: ScaleTiny,
			RDMALoad: 0.4, TCPLoad: 0.4, Shards: 2, Trace: traced()},
		"shards2-faults": {Name: "digest-faults", Policy: "L2BM", Scale: ScaleTiny,
			RDMALoad: 0.4, TCPLoad: 0.4, Shards: 2, Faults: faultPlan(), Audit: &AuditSpec{}},
		"hybrid-steady": {Name: "digest-steady", Policy: "L2BM", Scale: ScaleTiny,
			RDMALoad: 0.02, TCPLoad: 0.02, InterRackOnly: true,
			WindowOverride: 10 * sim.Millisecond, Fidelity: FidelityHybrid},
		"hybrid-audit": {Name: "digest-hybrid", Policy: "L2BM", Scale: ScaleTiny,
			RDMALoad: 0.4, TCPLoad: 0.3, Incast: incast(), Fidelity: FidelityHybrid,
			Audit: &AuditSpec{Every: 50 * sim.Microsecond}, Trace: traced()},
	}
}

// TestResultDigestsPinned pins the exact output of every runner strategy:
// the SHA-256 of the canonical result envelope, with nothing zeroed (event,
// pool, audit and fluid-step counters included), plus the columnar export
// for traced points. Any drift in seeding, generator configuration, arming
// order or result assembly shows up here. There is deliberately no update
// flag: a mismatch is a behaviour change, not a stale fixture.
func TestResultDigestsPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/result_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	specs := digestSpecs()
	if len(want) != len(specs) {
		t.Errorf("testdata pins %d digests, test defines %d specs", len(want), len(specs))
	}
	for name, spec := range specs {
		res, err := RunHybrid(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body, err := MarshalResults([]*Result{res})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		h.Write(body)
		if spec.Trace != nil {
			var col bytes.Buffer
			if err := res.WriteCol(&col); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			h.Write(col.Bytes())
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s: digest %s, pinned %s\nspec: %s", name, got, want[name], describeSpec(spec))
		}
	}
}

// describeSpec renders a spec with its pointer fields dereferenced, so a
// digest mismatch names the exact point that drifted.
func describeSpec(spec HybridSpec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		return err.Error()
	}
	return string(b)
}
