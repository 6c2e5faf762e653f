package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"l2bm/internal/core"
	"l2bm/internal/exp"
	"l2bm/internal/sim"
	"l2bm/internal/switchsim"
	"l2bm/internal/topo"
)

// A rep is one child process: a fresh process per measured unit of work, so
// its peak RSS and heap state are its own.
//
// Modes: plain reps are the timed, untraced runs; profile reps run the same
// work under the CPU profiler; span reps arm the tracing seams (timing
// policy wrapper, phase stamps, HTTP spans).
const (
	modePlain   = "plain"
	modeProfile = "profile"
	modeSpans   = "spans"
)

// framesCount names the frames a batch point's simulated network
// transmitted: TxPackets summed over every port of every cluster the run
// built. It sizes the point for cpu_s (see bench.endToEnd).
const framesCount = "netdev.tx_frames"

// repReport is what a rep prints as its last stdout line.
type repReport struct {
	Digest    string             `json:"digest"`
	Ops       int                `json:"ops"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	SetupS    float64            `json:"setup_s"`
	WallS     []float64          `json:"wall_s"` // one per operation
	CPUS      float64            `json:"cpu_s"`  // per operation
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Counts    map[string]float64 `json:"counts"`
	Profile   string             `json:"profile,omitempty"`
}

func repMain(args []string) int {
	fs := flag.NewFlagSet("rep", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	point := fs.Int("point", 0, "point index within the seed")
	mode := fs.String("mode", modePlain, "plain|profile|spans")
	dir := fs.String("dir", "", "scratch directory inside the checkout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *dir == "" {
		fmt.Fprintf(os.Stderr, "perfbench rep: bad workload %q or missing -dir\n", *name)
		return 2
	}
	var rep repReport
	var err error
	if w.spec == nil {
		rep, err = runDaemonRep(saltFor(*seed, *point), *mode, *dir)
	} else {
		rep, err = runBatchRep(w, saltFor(*seed, *point), *mode, *dir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench rep %s: %v\n", *name, err)
		return 1
	}
	if rep.PeakRSSMB, err = peakRSSMB(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench rep %s: peak RSS: %v\n", *name, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return 1
	}
	return 0
}

// runBatchRep runs one simulation point: spec → RunHybrid → canonical
// result bytes (plus the columnar export where the workload has one).
// Set-up is the time from the call to the end of the first cluster build.
func runBatchRep(w workload, salt, mode, dir string) (repReport, error) {
	spec := w.spec(salt)
	var spans *spanLog
	var calls *policyCalls
	if mode == modeSpans {
		spans = newSpanLog()
		calls = &policyCalls{}
		spec.PolicyFactory = timedFactory(spec.Policy, calls)
	}

	// frames counts the finished clusters' frames; the current cluster is
	// counted when the next is built (a hybrid run builds one per packet
	// segment) or after the run, so no finished cluster is kept alive.
	var frames uint64
	var current *topo.Cluster
	var built, lastPoll, lastBuild time.Time
	var segments [][2]time.Time // closed packet segments: build → last poll
	var cpuBuilt float64
	builds, pendingPeak := 0, 0
	spec.Hooks = &exp.RunHooks{PostBuild: func(cl *topo.Cluster) {
		now := time.Now()
		if current != nil {
			frames += txFrames(current)
		}
		current = cl
		builds++
		if builds == 1 {
			built, cpuBuilt = now, cpuSeconds()
		}
		if spans == nil {
			return
		}
		if builds > 1 {
			segments = append(segments, [2]time.Time{lastBuild, lastPoll})
		}
		lastBuild, lastPoll = now, now
		// Observer-free poll: reads the pending population and the clock,
		// never stops the run (RunHybrid's background context arms no
		// interrupt of its own, so this one is not replaced).
		eng := cl.Eng
		eng.SetInterrupt(1024, func() bool {
			if p := eng.Pending(); p > pendingPeak {
				pendingPeak = p
			}
			lastPoll = time.Now()
			return false
		})
	}}

	var prof string
	if mode == modeProfile {
		prof = filepath.Join(dir, fmt.Sprintf("cpu-%s-%d.pprof", w.name, os.Getpid()))
		stop, err := startProfile(prof)
		if err != nil {
			return repReport{}, err
		}
		defer stop()
	}
	var ms0 runtime.MemStats
	if spans != nil {
		runtime.ReadMemStats(&ms0)
	}

	start := time.Now()
	res, err := exp.RunHybrid(spec)
	if err != nil {
		return repReport{}, fmt.Errorf("run: %w", err)
	}
	ran := time.Now()
	// The canonical output bytes are part of the operation, as for
	// l2bmexp -spec; the digest below re-marshals outside the timing.
	if _, err := exp.MarshalResults([]*exp.Result{res}); err != nil {
		return repReport{}, err
	}
	marshaled := time.Now()
	var col bytes.Buffer
	if w.exportCol {
		if err := res.WriteCol(&col); err != nil {
			return repReport{}, fmt.Errorf("columnar export: %w", err)
		}
	}
	end := time.Now()
	cpuEnd := cpuSeconds()
	if builds == 0 {
		return repReport{}, fmt.Errorf("run built no cluster")
	}
	sum, err := resultDigest([]*exp.Result{res}, col.Bytes())
	if err != nil {
		return repReport{}, err
	}
	frames += txFrames(current)

	rep := repReport{
		Digest:   sum,
		Ops:      1,
		Problems: checkResult(w.name, res),
		SetupS:   built.Sub(start).Seconds(),
		WallS:    []float64{end.Sub(built).Seconds()},
		CPUS:     cpuEnd - cpuBuilt,
		Profile:  prof,
		Counts: map[string]float64{
			"sim.events":             float64(res.Events),
			framesCount:              float64(frames),
			"switchsim.pause_frames": float64(res.PauseFrames),
			"switchsim.lossy_drops":  float64(res.LossyDrops),
			"switchsim.ecn_marks":    float64(res.ECNMarked),
			"pkt.pool_gets":          float64(res.PoolGets),
			"topo.builds":            float64(builds),
			"fluid.coverage":         float64(res.FluidTime) / float64(res.EndTime),
			"fluid.steps":            float64(res.FluidSteps),
			"fluid.packet_segments":  float64(res.PacketSegments),
			"audit.checks":           float64(res.AuditChecks),
			"workload.flows_started": float64(res.FlowsStarted),
		},
	}
	if len(rep.Problems) > 0 {
		rep.Failed = 1
	}
	if spans == nil {
		return rep, nil
	}

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	op := spans.add("op", -1, start, end)
	spans.add("setup", op, start, built)
	for _, seg := range append(segments, [2]time.Time{lastBuild, lastPoll}) {
		spans.add("segment", op, seg[0], seg[1])
	}
	spans.add("summarize", op, lastPoll, ran)
	spans.add("marshal", op, ran, marshaled)
	if w.exportCol {
		spans.add("col_write", op, marshaled, end)
		rep.Counts["trace.col_write_s"] = end.Sub(marshaled).Seconds()
		rep.Counts["trace.col_bytes"] = float64(col.Len())
	}
	rep.Counts["exp.summarize_s"] = ran.Sub(lastPoll).Seconds()
	rep.Counts["sim.pending_peak"] = float64(pendingPeak)
	rep.Counts["core.calls"] = float64(calls.n)
	if calls.n > 0 {
		rep.Counts["core.ns_per_call"] = float64(calls.ns) / float64(calls.n)
	}
	rep.Counts["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	rep.Counts["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	rep.Counts["runtime.mallocs"] = float64(ms1.Mallocs - ms0.Mallocs)
	if rep.Counts["topo.build_s"], err = timeBuilds(spec, spans); err != nil {
		return repReport{}, err
	}
	return rep, spans.write(dir, w.name, salt)
}

// txFrames sums the frames every host NIC and switch port of cl transmitted.
func txFrames(cl *topo.Cluster) uint64 {
	var n uint64
	for _, h := range cl.Hosts {
		n += h.NIC().Stats().TxPackets
	}
	for _, tier := range [][]*switchsim.Switch{cl.ToRs, cl.Aggs, cl.Cores} {
		for _, sw := range tier {
			for i := 0; i < sw.NumPorts(); i++ {
				n += sw.Port(i).Stats().TxPackets
			}
		}
	}
	return n
}

// timeBuilds times direct topo.Build calls of the workload's topology (the
// median of three fresh builds), outside the measured operation.
func timeBuilds(spec exp.HybridSpec, spans *spanLog) (float64, error) {
	cfg := spec.Scale.Topo()
	if spec.TopoOverride != nil {
		spec.TopoOverride(&cfg)
	}
	var ds []float64
	for i := 0; i < 3; i++ {
		eng := sim.NewEngineWheel(1, sim.WheelGranularityFor(cfg.MinPropDelay()))
		t0 := time.Now()
		if _, err := topo.Build(eng, cfg, func() core.Policy { return exp.NewPolicy(spec.Policy) }, nil); err != nil {
			return 0, fmt.Errorf("topo build: %w", err)
		}
		t1 := time.Now()
		spans.add("topo_build", -1, t0, t1)
		ds = append(ds, t1.Sub(t0).Seconds())
	}
	return median(ds), nil
}

func startProfile(path string) (func(), error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	// 500 Hz instead of pprof's 100 Hz, so a few-second run gives the
	// small layers enough samples. StartCPUProfile then prints a harmless
	// "cannot set cpu profile rate" warning; the profile header carries
	// the rate set here, so sample values stay correct.
	runtime.SetCPUProfileRate(500)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's peak resident set (VmHWM). Each rep is its
// own process, so no earlier run can mask it.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile linearly interpolates the q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
