package exp

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestScaleJSON(t *testing.T) {
	for _, tc := range []struct {
		scale Scale
		want  string
	}{
		{ScaleTiny, `"tiny"`},
		{ScaleSmall, `"small"`},
		{ScaleFull, `"full"`},
	} {
		got, err := json.Marshal(tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("marshal %v = %s, want %s", tc.scale, got, tc.want)
		}
		var back Scale
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if back != tc.scale {
			t.Errorf("round trip %v came back %v", tc.scale, back)
		}
	}
	// Integer form is accepted too (and is what unnamed values render as).
	var s Scale
	if err := json.Unmarshal([]byte(jsonInt(int(ScaleSmall))), &s); err != nil || s != ScaleSmall {
		t.Errorf("integer unmarshal: %v, %v", s, err)
	}
	if err := json.Unmarshal([]byte(`"galactic"`), &s); err == nil {
		t.Error("unknown scale name unmarshaled")
	}
	if err := json.Unmarshal([]byte(`true`), &s); err == nil {
		t.Error("non-scalar scale unmarshaled")
	}
}

// validSweepBody and invalidSweepBodies are TestParseSweepRequest's inputs,
// shared as the seed corpus of FuzzParseSweepRequest.
const validSweepBody = `{"name":"ok","specs":[{"Name":"p0","Policy":"DT","Scale":"tiny","TCPLoad":0.4}]}`

var invalidSweepBodies = map[string]string{
	"syntax":          `{"specs":`,
	"unknown field":   `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Polciy":"DT"}]}`,
	"trailing data":   validSweepBody + `{"more":1}`,
	"no specs":        `{"name":"empty","specs":[]}`,
	"missing name":    `{"specs":[{"Policy":"DT","Scale":"tiny"}]}`,
	"missing policy":  `{"specs":[{"Name":"p","Scale":"tiny"}]}`,
	"unknown policy":  `{"specs":[{"Name":"p","Policy":"Nope","Scale":"tiny"}]}`,
	"unknown scale":   `{"specs":[{"Name":"p","Policy":"DT","Scale":99}]}`,
	"bad fidelity":    `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Fidelity":"analytic"}]}`,
	"hybrid sharded":  `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Fidelity":"hybrid","Shards":2}]}`,
	"bad sched":       `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Sched":"lottery"}]}`,
	"negative shards": `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Shards":-1}]}`,
	"load too high":   `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","TCPLoad":1.5}]}`,
	"load negative":   `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","RDMALoad":-0.1}]}`,
	"bad incast":      `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Incast":{"Fanout":0,"RequestBytes":1,"QueryRate":1}}]}`,
}

func TestParseSweepRequest(t *testing.T) {
	req, err := ParseSweepRequest([]byte(validSweepBody))
	if err != nil {
		t.Fatal(err)
	}
	if req.Name != "ok" || len(req.Specs) != 1 || req.Specs[0].Scale != ScaleTiny {
		t.Errorf("parsed request wrong: %+v", req)
	}

	for name, body := range invalidSweepBodies {
		if _, err := ParseSweepRequest([]byte(body)); err == nil {
			t.Errorf("%s: want error, got success", name)
		}
	}

	// The unknown-policy message lists the registry, like the CLI.
	_, err = ParseSweepRequest([]byte(`{"specs":[{"Name":"p","Policy":"Nope","Scale":"tiny"}]}`))
	if err == nil || !strings.Contains(err.Error(), "L2BM") {
		t.Errorf("unknown-policy error should list the registry, got %v", err)
	}

	// Spec index is named so multi-point submissions pinpoint the bad one.
	_, err = ParseSweepRequest([]byte(`{"specs":[
		{"Name":"p0","Policy":"DT","Scale":"tiny"},
		{"Name":"p1","Policy":"DT","Scale":"tiny","TCPLoad":2}]}`))
	if err == nil || !strings.Contains(err.Error(), "spec 1") {
		t.Errorf("validation error should name the failing spec, got %v", err)
	}
}

func TestSweepID(t *testing.T) {
	body := `{"name":"n","specs":[{"Name":"p0","Policy":"DT","Scale":"tiny","TCPLoad":0.4}]}`
	a, err := ParseSweepRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSweepRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if a.SweepID() != b.SweepID() {
		t.Error("equal requests got different sweep IDs")
	}
	c := *a
	c.Specs = append([]HybridSpec{}, a.Specs...)
	c.Specs[0].TCPLoad = 0.5
	if c.SweepID() == a.SweepID() {
		t.Error("different specs got the same sweep ID")
	}
	if len(a.SweepID()) != 16 {
		t.Errorf("sweep ID %q is not 16 hex chars", a.SweepID())
	}
}

// TestMarshalResultsEnvelope: the canonical envelope splices exact
// json.Marshal bytes — MarshalResults over results and MarshalRawResults
// over their pre-marshaled bytes agree byte for byte.
func TestMarshalResultsEnvelope(t *testing.T) {
	results := []*Result{
		{Policy: "DT", TCPSlowdowns: []float64{1.5}},
		{Policy: "L2BM", RDMASlowdowns: []float64{1, 2}},
	}
	fresh, err := MarshalResults(results)
	if err != nil {
		t.Fatal(err)
	}
	raws := make([]json.RawMessage, len(results))
	for i, r := range results {
		if raws[i], err = json.Marshal(r); err != nil {
			t.Fatal(err)
		}
	}
	if cached := MarshalRawResults(raws); string(cached) != string(fresh) {
		t.Errorf("fresh and raw envelopes differ:\n%s\n%s", fresh, cached)
	}
	if !strings.HasPrefix(string(fresh), `{"points":[`) || !strings.HasSuffix(string(fresh), "]}\n") {
		t.Errorf("envelope shape wrong: %.60s", fresh)
	}
	var decoded struct {
		Points []json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(fresh, &decoded); err != nil {
		t.Fatalf("envelope is not valid JSON: %v", err)
	}
	if len(decoded.Points) != 2 {
		t.Errorf("envelope has %d points, want 2", len(decoded.Points))
	}
}

// FuzzParseSweepRequest: the daemon's request decoder never panics, and
// every request it accepts survives re-marshal and re-parse with the same
// SweepID and the same per-spec cache keys (or the same refusal to key).
func FuzzParseSweepRequest(f *testing.F) {
	f.Add([]byte(validSweepBody))
	// One accepted request with every optional section set, so mutations
	// start from nested fields too.
	f.Add([]byte(`{"name":"full","specs":[{"Name":"p","Policy":"L2BM","Scale":"small","RDMALoad":0.4,` +
		`"TCPLoad":0.2,"Shards":2,"Incast":{"Fanout":4,"RequestBytes":1000,"QueryRate":5},` +
		`"Faults":{"Plan":{"FlapRate":5,"FlapDowntime":1000,"BER":1e-9}},"Audit":{"Every":1000},"Trace":{"Capacity":8}}]}`))
	for _, body := range invalidSweepBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseSweepRequest(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-marshal: %v", err)
		}
		req2, err := ParseSweepRequest(again)
		if err != nil {
			t.Fatalf("re-marshaled request rejected: %v\n%s", err, again)
		}
		if a, b := req.SweepID(), req2.SweepID(); a != b {
			t.Fatalf("SweepID changed across the round trip: %s vs %s\n%s", a, b, again)
		}
		if len(req2.Specs) != len(req.Specs) {
			t.Fatalf("round trip changed the spec count: %d vs %d", len(req.Specs), len(req2.Specs))
		}
		for i := range req.Specs {
			k1, err1 := CacheKey(req.Specs[i])
			k2, err2 := CacheKey(req2.Specs[i])
			if k1 != k2 || (err1 == nil) != (err2 == nil) {
				t.Fatalf("spec %d: cache key changed across the round trip: %q (%v) vs %q (%v)", i, k1, err1, k2, err2)
			}
		}
	})
}
