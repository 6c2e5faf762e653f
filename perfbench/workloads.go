package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"l2bm/internal/exp"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
)

// defaultSeed is the seed whose simulated output is pinned by digests.json.
// Any other seed is a held-out seed: its runs are checked for the model's
// invariants, and its traced run against its untraced run, not against a
// committed digest.
const defaultSeed = 1

// workload is one benchmark input. Batch workloads run a single simulation
// point per operation; the daemon workload serves a cached sweep.
type workload struct {
	name string
	// spec builds the batch point for a seed salt (nil for the daemon).
	spec func(salt string) exp.HybridSpec
	// exportCol makes the columnar trace export part of each operation.
	exportCol bool
}

var workloads = []workload{
	{name: "fig7_l2bm", spec: func(salt string) exp.HybridSpec {
		// Fig. 7 headline point at the 32-server scale, where the buffer
		// actually drops and marks.
		return exp.HybridSpec{Name: "fig7", Policy: "L2BM", Scale: exp.ScaleSmall,
			RDMALoad: 0.4, TCPLoad: 0.8, SeedSalt: salt}
	}},
	{name: "incast_dt_pfc", exportCol: true, spec: func(salt string) exp.HybridSpec {
		// DT (the pause-storm baseline) under the Fig. 10/11 incast
		// stream, flight recorder armed for the Fig. 8 export.
		return exp.HybridSpec{Name: "incast", Policy: "DT", Scale: exp.ScaleSmall,
			RDMALoad: 0.4, TCPLoad: 0.8, SeedSalt: salt,
			Incast: &exp.IncastSpec{Fanout: 15, RequestBytes: 1 << 20, QueryRate: 752},
			Trace:  &exp.TraceSpec{}}
	}},
	{name: "steady_hybrid", spec: func(salt string) exp.HybridSpec {
		// The hybrid-fidelity steady spec stretched to a 10 s window.
		return exp.HybridSpec{Name: "steady", Policy: "L2BM", Scale: exp.ScaleTiny,
			RDMALoad: 0.02, TCPLoad: 0.02, InterRackOnly: true, SeedSalt: salt,
			WindowOverride: 10 * sim.Second, Fidelity: exp.FidelityHybrid}
	}},
	{name: "scale_10k", spec: func(salt string) exp.HybridSpec {
		// The -exp scale smoke at 10,240 hosts, auditor armed.
		cfg, err := exp.HyperscaleFor(exp.ScaleSmall).Config()
		if err != nil {
			panic(err) // a fixed preset: only a bug can make it invalid
		}
		return exp.HybridSpec{Name: "scale-small", Policy: "L2BM", Scale: exp.ScaleSmall,
			RDMALoad: 0.05, TCPLoad: 0.05, InterRackOnly: true, SeedSalt: salt,
			WindowOverride: 200 * sim.Microsecond,
			TopoOverride:   func(c *topo.Config) { *c = cfg },
			Audit:          &exp.AuditSpec{}}
	}},
	{name: "daemon_hits"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// saltFor maps the benchmark seed and a point index to the spec's SeedSalt.
// A run simulates points 0, 1, 2, ... of its seed: independent inputs, so a
// run's figures average over several draws of the same traffic model.
func saltFor(seed int64, point int) string { return fmt.Sprintf("perfbench-%d-%d", seed, point) }

// daemonGrid is the Table II tiny grid the daemon workload caches and
// resubmits: the paper's four policies × Table II loads at RDMA 0.4. Each
// spec gets its own salt, so the cold fill sums 20 independent traffic
// draws instead of 5 shared by the four policies of a load; its time, the
// daemon's set-up, then varies far less with the seed.
func daemonGrid(salt string) exp.SweepRequest {
	req := exp.SweepRequest{Name: "table2"}
	for _, pol := range exp.PolicyNames {
		for _, load := range exp.Table2Loads {
			req.Specs = append(req.Specs, exp.HybridSpec{Name: "fig7", Policy: pol,
				Scale: exp.ScaleTiny, RDMALoad: 0.4, TCPLoad: load,
				SeedSalt: fmt.Sprintf("%s-%d", salt, len(req.Specs))})
		}
	}
	return req
}

// checkResult applies the model invariants every run must satisfy,
// whatever the seed, and returns the violations found.
func checkResult(label string, r *exp.Result) []string {
	var bad []string
	if len(r.AuditErrors) > 0 {
		bad = append(bad, fmt.Sprintf("%s: %d audit errors, first: %s", label, len(r.AuditErrors), r.AuditErrors[0]))
	}
	if r.LosslessViolations != 0 || r.LosslessGaps != 0 {
		bad = append(bad, fmt.Sprintf("%s: lossless violations %d, gaps %d", label, r.LosslessViolations, r.LosslessGaps))
	}
	if r.FlowsStarted != r.FlowsCompleted+r.TruncatedFlows {
		bad = append(bad, fmt.Sprintf("%s: flows started %d != completed %d + truncated %d",
			label, r.FlowsStarted, r.FlowsCompleted, r.TruncatedFlows))
	}
	if r.FlowsStarted == 0 {
		bad = append(bad, label+": no flows started")
	}
	return bad
}

// decodeEnvelope decodes a canonical {"points":[...]} body.
func decodeEnvelope(body []byte) ([]*exp.Result, error) {
	var env struct{ Points []*exp.Result }
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fmt.Errorf("result envelope: %w", err)
	}
	if len(env.Points) == 0 {
		return nil, fmt.Errorf("result envelope: no points")
	}
	return env.Points, nil
}

// resultDigest is the SHA-256 of the canonical exp.MarshalResults bytes of
// points, followed by extra (e.g. the columnar export). The cost-accounting
// counters are zeroed first: they count the implementation's work, not the
// simulated outcome, so a change that only does less work keeps the digest.
func resultDigest(points []*exp.Result, extra ...[]byte) (string, error) {
	clean := make([]*exp.Result, len(points))
	for i, r := range points {
		c := *r
		c.Events, c.PoolGets, c.PoolLive, c.FluidSteps, c.AuditChecks = 0, 0, 0, 0, 0
		clean[i] = &c
	}
	body, err := exp.MarshalResults(clean)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(body)
	for _, b := range extra {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
