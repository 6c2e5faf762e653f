// The run pipeline shared by every execution strategy. A data point goes
// through three stages:
//
//   - plan (planRun): everything the point needs, resolved once from its
//     spec before the first cluster is built — policy, seed, topology,
//     window/drain/horizon, host split and the workload generator configs;
//   - strategy: the single engine (run.go), the psim conductor
//     (sharded.go) or the fluid segment loop (hybrid.go), each arming the
//     plan on the clusters it builds, in its own fixed order;
//   - summarize: the helpers below that fill a Result from a finished
//     cluster and its observers.
//
// Because all three strategies read one plan, they offer the identical
// workload under the identical seed (common random numbers), and a run
// differs from another only in what its MMUs and its strategy decide.
package exp

import (
	"fmt"
	"sort"

	"l2bm/internal/audit"
	"l2bm/internal/core"
	"l2bm/internal/dcqcn"
	"l2bm/internal/faults"
	"l2bm/internal/fluid"
	"l2bm/internal/metrics"
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
	"l2bm/internal/trace"
	"l2bm/internal/transport"
	"l2bm/internal/workload"
)

// Structured flow-ID tags, one per generator kind. Replicated generators
// mint IDs as pure functions of (tag, source/query, sequence), so replicas
// on different shards agree without a shared counter; distinct tags keep
// the ID spaces disjoint.
const (
	tagRDMA   byte = 1
	tagTCP    byte = 2
	tagIncast byte = 3
)

// runPlan is one data point, fully resolved before any cluster exists.
type runPlan struct {
	spec       HybridSpec
	policyName string
	factory    topo.PolicyFactory
	seed       int64
	topoCfg    topo.Config

	window  sim.Duration // traffic generation phase
	horizon sim.Duration // window + drain: when the run stops
	every   sim.Duration // occupancy sampling period

	// workload holds the generator configs in install order (rdma, tcp,
	// incast), without observers: each strategy installs them with its
	// own, or replays them through fluid.Extract.
	workload fluid.Workload
}

// planRun resolves a spec into its plan.
func planRun(spec HybridSpec) *runPlan {
	p := &runPlan{spec: spec, policyName: spec.Policy, factory: spec.PolicyFactory}
	if p.factory == nil {
		name := spec.Policy
		p.factory = func() core.Policy { return NewPolicy(name) }
	} else if p.policyName == "" {
		p.policyName = p.factory().Name()
	}

	// The seed deliberately excludes the policy: the paper compares buffer
	// management schemes under the same offered workload, so runs differ
	// only in MMU decisions (common random numbers). It also excludes the
	// shard count and the fidelity, which are execution strategies.
	p.seed = p.streamSeed(fmt.Sprintf("%v/%v/%v", spec.RDMALoad, spec.TCPLoad, spec.Scale))

	p.topoCfg = spec.Scale.Topo()
	if spec.TopoOverride != nil {
		spec.TopoOverride(&p.topoCfg)
	}
	if spec.Faults != nil {
		// Injected loss breaks the lossless assumption, so RDMA needs the
		// go-back-N recovery path; fault-free runs keep it off to preserve
		// the paper's baseline byte-for-byte.
		if p.topoCfg.DCQCN.LineRate == 0 {
			p.topoCfg.DCQCN = dcqcn.DefaultConfig(p.topoCfg.ServerRate)
		}
		p.topoCfg.DCQCN.GoBackN = true
	}

	p.window = spec.Scale.Window()
	if spec.WindowOverride > 0 {
		p.window = spec.WindowOverride
	}
	drain := spec.Scale.Drain()
	if spec.DrainOverride > 0 {
		drain = spec.DrainOverride
	}
	p.horizon = p.window + drain
	p.every = spec.OccupancySampleEvery
	if p.every <= 0 {
		p.every = 100 * sim.Microsecond
	}

	// Split each rack: first half RDMA senders, second half TCP senders.
	var rdmaHosts, tcpHosts, allHosts []int
	perRack := p.topoCfg.ServersPerToR
	for h := 0; h < p.topoCfg.Hosts(); h++ {
		allHosts = append(allHosts, h)
		if h%perRack < perRack/2 {
			rdmaHosts = append(rdmaHosts, h)
		} else {
			tcpHosts = append(tcpHosts, h)
		}
	}
	var forbid func(src, dst int) bool
	if spec.InterRackOnly {
		cfg := &p.topoCfg
		forbid = func(src, dst int) bool { return cfg.ToROf(src) == cfg.ToROf(dst) }
	}
	for _, c := range []struct {
		load   float64
		hosts  []int
		prio   int
		class  pkt.Class
		stream string
		tag    byte
	}{
		{spec.RDMALoad, rdmaHosts, pkt.PrioLossless, pkt.ClassLossless, "rdma", tagRDMA},
		{spec.TCPLoad, tcpHosts, pkt.PrioLossy, pkt.ClassLossy, "tcp", tagTCP},
	} {
		if c.load > 0 {
			p.workload.Poisson = append(p.workload.Poisson, workload.PoissonConfig{
				Sources:    c.hosts,
				Dests:      allHosts,
				Load:       c.load,
				HostRate:   p.topoCfg.ServerRate,
				Sizes:      workload.WebSearchCDF(),
				Priority:   c.prio,
				Class:      c.class,
				Window:     p.window,
				Forbid:     forbid,
				StreamName: c.stream,
				IDTag:      c.tag,
			})
		}
	}
	if spec.Incast != nil {
		fanout := spec.Incast.Fanout
		if fanout >= len(allHosts) {
			// Scaled-down topologies cannot host the full fan-in degree.
			fanout = len(allHosts) - 1
		}
		// Queries target (and are answered by) any server, so fan-in
		// bursts land on ports whose buffers the TCP background is
		// already pressuring — the §IV-B contention the deep dive probes.
		p.workload.Incast = &workload.IncastConfig{
			Hosts:        allHosts,
			Fanout:       fanout,
			RequestBytes: spec.Incast.RequestBytes,
			QueryRate:    spec.Incast.QueryRate,
			Window:       p.window,
			Priority:     pkt.PrioLossless,
			Class:        pkt.ClassLossless,
			StreamName:   "incast",
			IDTag:        tagIncast,
		}
	}
	return p
}

// streamSeed derives the seed of one named random stream of this point.
func (p *runPlan) streamSeed(stream string) int64 {
	return seedFor(p.spec.Name, p.spec.SeedSalt, stream)
}

// newEngine builds an engine on the spec's scheduler backend.
func (p *runPlan) newEngine(seed int64) (*sim.Engine, error) {
	return newEngineFor(p.spec.Sched, &p.topoCfg, seed)
}

// postBuild fires the spec's PostBuild hook on a freshly built cluster.
func (p *runPlan) postBuild(cl *topo.Cluster) {
	if p.spec.Hooks != nil && p.spec.Hooks.PostBuild != nil {
		p.spec.Hooks.PostBuild(cl)
	}
}

// installWorkload installs the plan's generators on eng in plan order.
// Every launched flow is recorded in rec, and incast responder flows are
// also marked in incastIDs. owns, when non-nil, restricts the generators to
// one shard's hosts: Poisson sources draw from per-source streams, so
// installing only the owned sources launches exactly the flows a single
// generator would have, while the incast replica runs in lockstep on every
// shard (same queries, same draws) and launches only owned responders. It
// returns the incast generator, nil when the plan has none.
func (p *runPlan) installWorkload(eng *sim.Engine, cl *topo.Cluster, rec *metrics.FCTRecorder,
	incastIDs map[pkt.FlowID]bool, owns func(host int) bool) (*workload.Incast, error) {
	observe := func(f *transport.Flow) {
		rec.Started(f, cl.IdealFCT(f.Src, f.Dst, f.Size))
	}
	for _, cfg := range p.workload.Poisson {
		if owns != nil {
			var owned []int
			for _, h := range cfg.Sources {
				if owns(h) {
					owned = append(owned, h)
				}
			}
			if len(owned) == 0 {
				continue
			}
			cfg.Sources = owned
		}
		cfg.Observer = observe
		g, err := workload.NewPoisson(eng, cl, cfg)
		if err != nil {
			return nil, err
		}
		g.Install()
	}
	if p.workload.Incast == nil {
		return nil, nil
	}
	cfg := *p.workload.Incast
	cfg.Observer = func(f *transport.Flow) {
		incastIDs[f.ID] = true
		observe(f)
	}
	cfg.LaunchFilter = owns
	g, err := workload.NewIncast(eng, cl, cfg)
	if err != nil {
		return nil, err
	}
	g.Install()
	return g, nil
}

// armOccupancy starts one occupancy sampler per ToR (the paper traces rack
// switches) on the ToR's own engine — a shard-local read, so no barrier is
// needed — over the loaded phase, like the paper.
func (p *runPlan) armOccupancy(cl *topo.Cluster) []*metrics.Sampler {
	samplers := make([]*metrics.Sampler, len(cl.ToRs))
	for i, tor := range cl.ToRs {
		samplers[i] = metrics.NewSampler(cl.Engines[cl.Part.ToR[i]], p.every, tor.Occupancy)
		samplers[i].Start(p.window)
	}
	return samplers
}

// armTracer arms the flight recorder on every switch of cl: MMU probes plus
// a periodic occupancy + L2BM weight sampler, one recorder and sampler per
// engine (rings are single-threaded), sampling for sampleFor from now when
// that is positive. Everything here is feed-forward (probes and
// PeekSamples are pure reads), so arming it cannot change the run's
// results. Merge the returned recorders canonically after the run.
func (p *runPlan) armTracer(cl *topo.Cluster, sampleFor sim.Duration) []*trace.Recorder {
	tEvery := p.spec.Trace.SampleEvery
	if tEvery <= 0 {
		tEvery = p.every
	}
	recs := make([]*trace.Recorder, len(cl.Engines))
	samplers := make([]*trace.Sampler, len(cl.Engines))
	for s, eng := range cl.Engines {
		recs[s] = trace.NewRecorder(p.spec.Trace.Capacity)
		samplers[s] = trace.NewSampler(eng, recs[s], tEvery)
	}
	// shards[i] is the shard of AllSwitches()[i]: ToRs, then aggs, then cores.
	shards := make([]int, 0, len(cl.ToRs)+len(cl.Aggs)+len(cl.Cores))
	shards = append(append(append(shards, cl.Part.ToR...), cl.Part.Agg...), cl.Part.Core...)
	for i, sw := range cl.AllSwitches() {
		ts := samplers[shards[i]]
		sw.SetTracer(recs[shards[i]])
		ts.AddSwitch(sw)
		if l, ok := sw.Policy().(*core.L2BM); ok {
			name := sw.Name()
			var scratch []core.QueueSample // reused across ticks: zero-alloc sampling
			ts.AddProbe(func(now sim.Time, rec *trace.Recorder) {
				scratch = l.PeekSamplesAppend(scratch[:0], sw)
				for _, qs := range scratch {
					rec.RecordWeight(trace.WeightSample{
						At: now, Switch: name, Port: qs.Port, Prio: qs.Prio,
						Tau: qs.Tau, Weight: qs.Weight, Threshold: qs.Threshold,
					})
				}
			})
		}
	}
	if sampleFor > 0 {
		for _, ts := range samplers {
			ts.Start(sampleFor)
		}
	}
	return recs
}

// newInjector binds the spec's fault plan to eng's view of cl's links;
// setLive is each link's carrier-change binding (the whole cluster's
// liveness-aware routing, or one shard replica's). Unless the plan names
// its own LinkFilter, flaps are restricted to fabric (ToR–agg, agg–core)
// links: flapping an access link merely disconnects one host.
func (p *runPlan) newInjector(eng *sim.Engine, cl *topo.Cluster, setLive func(idx int, up bool)) (*faults.Injector, error) {
	links := cl.Links()
	out := make([]faults.Link, 0, len(links))
	tiers := make(map[string]topo.LinkTier, len(links))
	for _, l := range links {
		idx := l.Index
		out = append(out, faults.Link{
			Name: l.Name, A: l.A, B: l.B, AName: l.AName, BName: l.BName,
			SetLive: func(up bool) { setLive(idx, up) },
		})
		tiers[l.Name] = l.Tier
	}
	plan := p.spec.Faults.Plan
	if plan.LinkFilter == nil && plan.FlapRate > 0 {
		plan.LinkFilter = func(name string) bool {
			t := tiers[name]
			return t == topo.TierTorAgg || t == topo.TierAggCore
		}
	}
	return faults.NewInjector(eng, plan, out)
}

// faultRig is a run's armed fault machinery: the injector replicas (one per
// shard, a single one on the classic path), the deadlock detector and the
// no-progress watchdog. The strategy decides whether the observers run as
// engine events or as barrier tasks.
type faultRig struct {
	injs []*faults.Injector
	det  *faults.DeadlockDetector
	wd   *faults.Watchdog
}

// newFaultObservers builds the detector and watchdog with the spec's
// settings, unarmed.
func (p *runPlan) newFaultObservers(eng *sim.Engine, cl *topo.Cluster) (*faults.DeadlockDetector, *faults.Watchdog) {
	f := p.spec.Faults
	det := faults.NewDeadlockDetector(eng, cl.AllSwitches())
	if f.DetectorPeriod > 0 {
		det.Period = f.DetectorPeriod
	}
	det.Break = f.BreakDeadlocks
	wd := faults.NewWatchdog(eng, cl.DataReceived, cl.ResidentBytes)
	if f.WatchdogWindow > 0 {
		wd.Window = f.WatchdogWindow
	}
	return det, wd
}

// newResult starts the plan's Result.
func (p *runPlan) newResult() *Result {
	return &Result{Spec: p.spec, Policy: p.policyName}
}

// addFlows fills the flow-level fields from the run's FCT recorder (merged,
// when sharded): per-class slowdowns, flow counts and truncation, and, when
// the spec offers incast, the responder slowdowns (flows marked in
// incastIDs) and the query delays of the incast generator replicas.
func (res *Result) addFlows(rec *metrics.FCTRecorder, incastIDs map[pkt.FlowID]bool, incast ...*workload.Incast) {
	res.RDMASlowdowns = rec.Slowdowns(pkt.ClassLossless)
	res.TCPSlowdowns = rec.Slowdowns(pkt.ClassLossy)
	res.FlowsStarted, res.FlowsCompleted = rec.Counts()
	res.Incomplete = rec.IncompleteRecords()
	res.TruncatedFlows = len(res.Incomplete)
	if res.Spec.Incast == nil {
		return
	}
	for _, fr := range rec.Records(pkt.ClassLossless) {
		if incastIDs[fr.Flow.ID] {
			res.IncastSlowdowns = append(res.IncastSlowdowns, fr.Slowdown())
		}
	}
	// Keep the ascending invariant shared with the per-class slices so
	// percentile readers can use the sorted fast path.
	sort.Float64s(res.IncastSlowdowns)
	res.QueryDelays = workload.MergeCompletedResponseTimes(incast...)
}

// addOccupancy appends the ToR occupancy traces in ToR order.
func (res *Result) addOccupancy(samplers []*metrics.Sampler) {
	for _, s := range samplers {
		res.TorOccupancy = append(res.TorOccupancy, s.Samples)
	}
}

// addCluster adds one finished cluster's counters into the result: the
// switch roll-ups, lossless gaps, executed events, transport recovery,
// packet-pool counters and the end-of-run switch invariant sweep. The
// fluid controller calls it once per packet segment; final marks the
// cluster the run ended in, the only one whose parked frames count as live
// at run end (a quiescence cut's in-flight frames are re-served as fluid).
func (res *Result) addCluster(cl *topo.Cluster, final bool) {
	all := topo.SwitchStats(cl.AllSwitches())
	res.PauseFrames += all.PauseFramesSent
	res.LossyDrops += all.LossyDropsIngress + all.LossyDropsEgress
	res.LossyEvictions += all.LossyEvictions
	res.LosslessViolations += all.LosslessViolations
	res.ECNMarked += all.ECNMarked
	res.PFCReissues += all.PFCReissues
	res.ToRPauseFrames += topo.SwitchStats(cl.ToRs).PauseFramesSent
	res.AggPauseFrames += topo.SwitchStats(cl.Aggs).PauseFramesSent
	res.CorePauseFrames += topo.SwitchStats(cl.Cores).PauseFramesSent
	res.LosslessGaps += cl.LosslessGaps()
	for _, eng := range cl.Engines {
		res.Events += eng.Events()
	}

	res.RecoveryBytes += cl.RecoveryBytes()
	nacks, timeouts := cl.RDMARecoveryStats()
	res.RDMANACKs += nacks
	res.RDMATimeouts += timeouts
	for _, pl := range cl.Pools {
		if pl != nil {
			res.PoolGets += pl.Stats().Gets
			if final {
				res.PoolLive += pl.Live()
			}
		}
	}
	for _, sw := range cl.AllSwitches() {
		if err := sw.CheckInvariants(); err != nil {
			res.AuditErrors = append(res.AuditErrors, err.Error())
		}
	}
}

// addFaults reads the fault machinery's counters. Process counters (flaps,
// blackouts) replay identically on every injector replica — read replica 0.
// Port-scoped counters (corruption, lost PFC) only count owned ports — sum
// them. CarrierDrops reads every port's counters, identical from any
// replica after the run.
func (res *Result) addFaults(rig faultRig) {
	if len(rig.injs) == 0 {
		return
	}
	res.LinkDownEvents = rig.injs[0].Stats().LinkDownEvents
	for _, inj := range rig.injs {
		s := inj.Stats()
		res.CorruptedFrames += s.CorruptedFrames
		res.LostPFC += s.LostPFC
	}
	res.CarrierDrops = rig.injs[0].CarrierDrops()
	ds := rig.det.Stats()
	res.DeadlockScans = ds.Scans
	res.DeadlockCycles = ds.CyclesDetected
	res.DeadlocksBroken = ds.CyclesBroken
	res.WatchdogStalls = rig.wd.Stalls
}

// newAuditor builds the in-run invariant auditor for a spec, deriving the
// fault-tolerant settings: any active fault plan may legitimately strand a
// PFC pause (lost XON, cut carrier, blacked-out switch), so drain-time
// pause-leak checking is relaxed exactly then.
func newAuditor(spec HybridSpec, cl *topo.Cluster) *audit.Auditor {
	return audit.New(cl, audit.Config{
		Every:            spec.Audit.Every,
		MaxPauseAge:      spec.Audit.MaxPauseAge,
		Limit:            spec.Audit.Limit,
		AllowLeakedPause: spec.Faults != nil,
	})
}

// addAudit folds the auditor's findings into the result; final runs the
// drain-time exact checks first, which only hold when the run ended on
// this cluster (a quiescence cut legitimately leaves frames in flight).
func (res *Result) addAudit(aud *audit.Auditor, final bool) {
	if aud == nil {
		return
	}
	if final {
		aud.Final()
	}
	res.AuditErrors = append(res.AuditErrors, aud.Violations()...)
	res.AuditChecks += aud.Checks()
}
