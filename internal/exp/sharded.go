// The sharded hybrid runner: the same data point as RunHybrid, executed on
// N psim shards. Everything that must agree across shard counts is either a
// pure function of the wiring (arrival keys), replicated per shard on
// identically-seeded engines (workload generators, fault processes), or run
// as a conductor barrier task (deadlock scans, the watchdog). Per-shard
// observability (FCT recorders, incast bookkeeping, flight recorders) is
// merged deterministically after the run, so results are byte-identical for
// every legal shard count.
package exp

import (
	"context"

	"l2bm/internal/audit"
	"l2bm/internal/host"
	"l2bm/internal/metrics"
	"l2bm/internal/netdev"
	"l2bm/internal/pkt"
	"l2bm/internal/psim"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
	"l2bm/internal/trace"
	"l2bm/internal/workload"
)

// runSharded executes one hybrid data point across spec.Shards psim
// shards.
func runSharded(ctx context.Context, p *runPlan) (*Result, error) {
	shards := p.spec.Shards
	part, err := topo.ComputePartition(p.topoCfg, shards)
	if err != nil {
		return nil, err
	}
	engines := make([]*sim.Engine, shards)
	for i := range engines {
		if engines[i], err = p.newEngine(p.seed); err != nil {
			return nil, err
		}
	}

	// Per-shard observability: one FCT recorder and one incast replica per
	// shard. Completions are receiver-side, so a flow started on the source
	// host's shard may complete on the destination's — the recorder merge
	// joins those orphans after the run.
	recs := make([]*metrics.FCTRecorder, shards)
	incastGens := make([]*workload.Incast, shards)
	incastIDs := make([]map[pkt.FlowID]bool, shards)
	for i := range recs {
		recs[i] = metrics.NewFCTRecorder()
		incastIDs[i] = make(map[pkt.FlowID]bool)
	}

	cl, err := topo.BuildSharded(engines, part, p.topoCfg, p.factory,
		func(shard int) host.CompletionHandler {
			rec := recs[shard]
			return func(id pkt.FlowID, at sim.Time) {
				rec.Completed(id, at)
				if g := incastGens[shard]; g != nil {
					g.OnFlowComplete(id, at)
				}
			}
		})
	if err != nil {
		return nil, err
	}
	p.postBuild(cl)

	cond := psim.ForCluster(cl)
	defer cond.Close()

	// The auditor reads state across every shard, so like the detector and
	// watchdog it runs as a barrier task, never as one shard's engine event.
	var aud *audit.Auditor
	if p.spec.Audit != nil {
		aud = newAuditor(p.spec, cl)
		cond.AddTask(aud.Every(), func(now sim.Time) { aud.CheckOnce(now) })
	}

	// Fault injection: one replica per shard, all replaying the identical
	// plan (same named streams on identically-seeded engines). Each replica
	// applies carrier changes to its own liveness tables and touches only
	// the ports it owns.
	var rig faultRig
	if p.spec.Faults != nil {
		for s := 0; s < shards; s++ {
			inj, err := p.newInjector(engines[s], cl, func(idx int, up bool) { cl.SetLinkStateOn(s, idx, up) })
			if err != nil {
				return nil, err
			}
			inj.PortFilter = func(port *netdev.Port) bool { return port.Engine() == engines[s] }
			inj.Install()
			rig.injs = append(rig.injs, inj)
		}

		// Global observers read state across shards, so they run as barrier
		// tasks — at exact period multiples, when all shard clocks agree and
		// no events are in flight — never as one shard's engine events.
		rig.det, rig.wd = p.newFaultObservers(engines[0], cl)
		cond.AddTask(rig.det.Period, func(sim.Time) { rig.det.ScanOnce() })
		rig.wd.Prime()
		cond.AddTask(rig.wd.Window, func(sim.Time) { rig.wd.TickOnce() })
	}

	for s := 0; s < shards; s++ {
		incastGens[s], err = p.installWorkload(engines[s], cl, recs[s], incastIDs[s],
			func(h int) bool { return part.Host[h] == s })
		if err != nil {
			return nil, err
		}
	}
	samplers := p.armOccupancy(cl)
	var tracers []*trace.Recorder
	if p.spec.Trace != nil {
		tracers = p.armTracer(cl, p.window)
	}

	if ctx.Done() != nil {
		// ctx.Err is safe for concurrent use, as SetInterrupt requires of
		// its poll (shard workers check it in parallel).
		cond.SetInterrupt(interruptPollEvents, func() bool { return ctx.Err() != nil })
	}

	cond.Run(p.horizon)

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	allIncast := make(map[pkt.FlowID]bool)
	for _, m := range incastIDs {
		for id := range m {
			allIncast[id] = true
		}
	}
	res := p.newResult()
	res.EndTime = cond.Now()
	if tracers != nil {
		res.Trace = trace.Merge(tracers...)
	}
	res.addFlows(recs[0].Merge(recs[1:]...), allIncast, incastGens...)
	res.addOccupancy(samplers)
	res.addCluster(cl, true)
	res.addAudit(aud, true)
	res.addFaults(rig)
	return res, nil
}
