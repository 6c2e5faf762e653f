package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"l2bm/internal/core"
	"l2bm/internal/faults"
	"l2bm/internal/sim"
)

// TestCacheKeyCanonicalization: the cache key must depend only on what a
// spec means, never on how it was written down — and on every field that
// changes results.
func TestCacheKeyCanonicalization(t *testing.T) {
	// Two wire encodings of the same spec: different field order, zero-valued
	// optionals spelled out vs omitted.
	verbose := []byte(`{"specs":[{"TCPLoad":0.4,"Policy":"DT","Scale":"tiny","Name":"p0","RDMALoad":0.4,"SeedSalt":"","Shards":0,"Fidelity":"","InterRackOnly":false}]}`)
	terse := []byte(`{"specs":[{"Name":"p0","Policy":"DT","Scale":"tiny","RDMALoad":0.4,"TCPLoad":0.4}]}`)
	keyOf := func(data []byte) string {
		req, err := ParseSweepRequest(data)
		if err != nil {
			t.Fatal(err)
		}
		key, err := CacheKey(req.Specs[0])
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	if a, b := keyOf(verbose), keyOf(terse); a != b {
		t.Errorf("equivalent wire specs got different cache keys: %s vs %s", a, b)
	}

	// The base spec sets every optional section, so each nested field has
	// something to mutate; newBase returns fresh pointers per mutation.
	newBase := func() HybridSpec {
		return HybridSpec{Name: "p0", Policy: "DT", Scale: ScaleTiny, RDMALoad: 0.4, TCPLoad: 0.4,
			Incast: &IncastSpec{Fanout: 4, RequestBytes: 200_000, QueryRate: 2000},
			Faults: &FaultSpec{Plan: faults.Plan{FlapRate: 40, FlapDowntime: sim.Microsecond}},
			Audit:  &AuditSpec{},
		}
	}
	base := newBase()
	baseKey, err := CacheKey(base)
	if err != nil {
		t.Fatal(err)
	}
	// Every key field, as "<type>.<field>", with a mutation that must change
	// the cache key.
	mutations := map[string]func(*HybridSpec){
		"HybridSpec.Name":                 func(s *HybridSpec) { s.Name = "p1" },
		"HybridSpec.SeedSalt":             func(s *HybridSpec) { s.SeedSalt = "rerun" },
		"HybridSpec.Policy":               func(s *HybridSpec) { s.Policy = "L2BM" },
		"HybridSpec.Scale":                func(s *HybridSpec) { s.Scale = ScaleSmall },
		"HybridSpec.RDMALoad":             func(s *HybridSpec) { s.RDMALoad = 0.6 },
		"HybridSpec.TCPLoad":              func(s *HybridSpec) { s.TCPLoad = 0.6 },
		"HybridSpec.InterRackOnly":        func(s *HybridSpec) { s.InterRackOnly = true },
		"HybridSpec.Incast":               func(s *HybridSpec) { s.Incast = nil },
		"HybridSpec.OccupancySampleEvery": func(s *HybridSpec) { s.OccupancySampleEvery = 50 * sim.Microsecond },
		"HybridSpec.WindowOverride":       func(s *HybridSpec) { s.WindowOverride = sim.Millisecond },
		"HybridSpec.DrainOverride":        func(s *HybridSpec) { s.DrainOverride = 4 * sim.Millisecond },
		"HybridSpec.Shards":               func(s *HybridSpec) { s.Shards = 2 },
		"HybridSpec.Fidelity":             func(s *HybridSpec) { s.Fidelity = FidelityHybrid },
		"HybridSpec.Faults":               func(s *HybridSpec) { s.Faults = nil },
		"HybridSpec.Audit":                func(s *HybridSpec) { s.Audit = nil },
		"IncastSpec.Fanout":               func(s *HybridSpec) { s.Incast.Fanout = 8 },
		"IncastSpec.RequestBytes":         func(s *HybridSpec) { s.Incast.RequestBytes = 1_000_000 },
		"IncastSpec.QueryRate":            func(s *HybridSpec) { s.Incast.QueryRate = 752 },
		"FaultSpec.Plan":                  func(s *HybridSpec) { s.Faults.Plan = faults.Plan{BER: 1e-6} },
		"FaultSpec.DetectorPeriod":        func(s *HybridSpec) { s.Faults.DetectorPeriod = 50 * sim.Microsecond },
		"FaultSpec.BreakDeadlocks":        func(s *HybridSpec) { s.Faults.BreakDeadlocks = true },
		"FaultSpec.WatchdogWindow":        func(s *HybridSpec) { s.Faults.WatchdogWindow = sim.Millisecond },
		"Plan.Stream":                     func(s *HybridSpec) { s.Faults.Plan.Stream = "alt" },
		"Plan.FlapRate":                   func(s *HybridSpec) { s.Faults.Plan.FlapRate = 500 },
		"Plan.FlapDowntime":               func(s *HybridSpec) { s.Faults.Plan.FlapDowntime = 20 * sim.Microsecond },
		"Plan.FlapFixed":                  func(s *HybridSpec) { s.Faults.Plan.FlapFixed = true },
		"Plan.FlapWindow":                 func(s *HybridSpec) { s.Faults.Plan.FlapWindow = sim.Millisecond },
		"Plan.Scheduled": func(s *HybridSpec) {
			s.Faults.Plan.Scheduled = []faults.ScheduledEvent{{Link: "tor0-agg0", At: sim.Millisecond}}
		},
		"Plan.BER":         func(s *HybridSpec) { s.Faults.Plan.BER = 1e-6 },
		"Plan.PFCLossRate": func(s *HybridSpec) { s.Faults.Plan.PFCLossRate = 0.01 },
		"Plan.Blackouts": func(s *HybridSpec) {
			s.Faults.Plan.Blackouts = []faults.Blackout{{Switch: "agg0", At: sim.Millisecond, Duration: sim.Millisecond}}
		},
		"AuditSpec.Every":       func(s *HybridSpec) { s.Audit.Every = 200 * sim.Microsecond },
		"AuditSpec.MaxPauseAge": func(s *HybridSpec) { s.Audit.MaxPauseAge = 5 * sim.Millisecond },
		"AuditSpec.Limit":       func(s *HybridSpec) { s.Audit.Limit = 10 },
	}
	// Every non-key field, with the reason it stays out of the key.
	excluded := map[string]string{
		"HybridSpec.PolicyFactory": "func: uncacheable, CacheKey refuses it",
		"HybridSpec.TopoOverride":  "func: uncacheable, CacheKey refuses it",
		"HybridSpec.Hooks":         "funcs: uncacheable, CacheKey refuses it",
		"HybridSpec.Trace":         "an armed flight recorder is uncacheable, CacheKey refuses it",
		"HybridSpec.Sched":         "execution strategy: both backends produce byte-identical results",
		"Plan.LinkFilter":          "func: uncacheable, CacheKey refuses it",
	}
	// A field added to any spec type must be classified before it can ship:
	// a key that silently ignores it collides specs with different results.
	fields := map[string]bool{}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(HybridSpec{}), reflect.TypeOf(IncastSpec{}), reflect.TypeOf(FaultSpec{}),
		reflect.TypeOf(faults.Plan{}), reflect.TypeOf(AuditSpec{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fields[typ.Name()+"."+f.Name] = true
			}
		}
	}
	for name := range fields {
		_, mutated := mutations[name]
		_, skipped := excluded[name]
		switch {
		case mutated && skipped:
			t.Errorf("%s is both a key field and excluded", name)
		case !mutated && !skipped:
			t.Errorf("%s is unclassified: add a key mutation or an exclusion with its reason", name)
		}
	}
	for name := range mutations {
		if !fields[name] {
			t.Errorf("mutation table names %s, which is not a spec field", name)
		}
	}
	for name := range excluded {
		if !fields[name] {
			t.Errorf("exclusion list names %s, which is not a spec field", name)
		}
	}
	for name, mutate := range mutations {
		spec := newBase()
		mutate(&spec)
		key, err := CacheKey(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if key == baseKey {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}

	// A canonicalization-version bump must invalidate every key.
	bumped, err := cacheKeyAt(CheckpointVersion+1, base)
	if err != nil {
		t.Fatal(err)
	}
	if bumped == baseKey {
		t.Error("version bump did not change the cache key")
	}

	// Func-carrying specs have no canonical serialization and must refuse a
	// key rather than collide.
	carrying := base
	carrying.PolicyFactory = func() core.Policy { return nil }
	if _, err := CacheKey(carrying); err == nil {
		t.Error("spec with PolicyFactory got a cache key; want error")
	}
}

// TestResultCacheRoundTrip: Put stores the canonical bytes, Get returns
// exactly those bytes (the byte-identity the daemon's cache-hit path relies
// on) plus a decoded Result with the spec reattached.
func TestResultCacheRoundTrip(t *testing.T) {
	cache, err := NewResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := HybridSpec{Name: "rt", Policy: "DT", Scale: ScaleTiny, RDMALoad: 0.4, TCPLoad: 0.4}
	res := &Result{Policy: "DT", RDMASlowdowns: []float64{1, 1.25}, TCPSlowdowns: []float64{1.5}}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, ok := cache.Get(spec); ok {
		t.Fatal("Get before Put reported a hit")
	}
	if err := cache.Put(spec, raw); err != nil {
		t.Fatal(err)
	}
	gotRaw, gotRes, ok := cache.Get(spec)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if !bytes.Equal(gotRaw, raw) {
		t.Errorf("cached bytes differ:\nput %s\ngot %s", raw, gotRaw)
	}
	if gotRes.Spec.Name != spec.Name || gotRes.Policy != "DT" || len(gotRes.RDMASlowdowns) != 2 {
		t.Errorf("decoded result wrong: %+v", gotRes)
	}
	if n, err := cache.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v; want 1, nil", n, err)
	}

	// A different spec is a miss, not a collision.
	other := spec
	other.SeedSalt = "other"
	if _, _, ok := cache.Get(other); ok {
		t.Error("different spec hit the same entry")
	}

	// An entry whose header names a stale derivation must miss, not
	// misread. Rewrite the stored header with a bumped version.
	key, err := CacheKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cache.Dir, "point-"+key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data,
		[]byte(`"version":`+jsonInt(CheckpointVersion)),
		[]byte(`"version":`+jsonInt(CheckpointVersion+1)), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("header tamper did not apply")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := cache.Get(spec); ok {
		t.Error("stale-version entry still served")
	}

	// Uncacheable specs: Put is a silent no-op, Get a miss.
	carrying := spec
	carrying.PolicyFactory = func() core.Policy { return nil }
	if err := cache.Put(carrying, raw); err != nil {
		t.Errorf("Put of uncacheable spec errored: %v", err)
	}
	if _, _, ok := cache.Get(carrying); ok {
		t.Error("uncacheable spec reported a hit")
	}

	// A nil cache ignores everything.
	var nilCache *ResultCache
	if err := nilCache.Put(spec, raw); err != nil {
		t.Errorf("nil cache Put: %v", err)
	}
	if _, _, ok := nilCache.Get(spec); ok {
		t.Error("nil cache reported a hit")
	}
}

func jsonInt(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestCacheEntriesSurviveReopen: the cache is plain files; reopening the
// directory sees prior entries (the daemon-restart story).
func TestCacheEntriesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	spec := HybridSpec{Name: "reopen", Policy: "L2BM", Scale: ScaleTiny, TCPLoad: 0.3}
	first, err := NewResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw := []byte(`{"Policy":"L2BM"}`)
	if err := first.Put(spec, raw); err != nil {
		t.Fatal(err)
	}
	second, err := NewResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	gotRaw, _, ok := second.Get(spec)
	if !ok || !bytes.Equal(gotRaw, raw) {
		t.Errorf("reopened cache: ok=%v raw=%s", ok, gotRaw)
	}
	// No stray temp files left behind by successful writes.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}
