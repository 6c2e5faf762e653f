// Command perfbench benchmarks the L2BM simulator end to end and layer by
// layer. See README.md in this directory for the workloads, the metrics and
// what each layer metric is predicted to move.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end host
// timings of untraced runs; with --trace 1 they are the per-layer numbers of
// a separate profiled run and a separate traced run. Each measured unit of
// work runs in its own child process ("perfbench rep ...").
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

//go:embed digests.json
var digestsJSON []byte

// Metric names and units; BENCHMARK.json lists the same (see metrics_test.go).
var endToEndMetrics = []metricDef{
	{"cpu_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
}

// selfFracPkgs are the buckets the CPU profile is attributed to.
var selfFracPkgs = []string{
	"sim", "netdev", "switchsim", "core", "dctcp", "dcqcn", "host", "pkt", "topo",
	"fluid", "exp", "audit", "trace", "serve", "workload", "metrics", "psim",
	"transport", "colfmt", runtimeBucket, benchBucket,
}

var perLayerMetrics = func() []metricDef {
	var defs []metricDef
	for _, p := range selfFracPkgs {
		defs = append(defs, metricDef{p + ".self_frac", "fraction"})
	}
	return append(defs, []metricDef{
		{"sim.events", "count"}, {"sim.events_per_s", "1/s"}, {"sim.pending_peak", "count"},
		{framesCount, "count"},
		{"switchsim.pause_frames", "count"}, {"switchsim.lossy_drops", "count"}, {"switchsim.ecn_marks", "count"},
		{"core.calls", "count"}, {"core.ns_per_call", "ns"},
		{"pkt.pool_gets", "count"},
		{"topo.build_s", "s"}, {"topo.builds", "count"},
		{"fluid.coverage", "fraction"}, {"fluid.steps", "count"}, {"fluid.packet_segments", "count"},
		{"exp.summarize_s", "s"}, {"exp.cache_get_ms", "ms"},
		{"audit.checks", "count"}, {"workload.flows_started", "count"},
		{"trace.col_write_s", "s"}, {"trace.col_bytes", "bytes"},
		{"serve.hit_p50_ms", "ms"}, {"serve.hit_p90_ms", "ms"},
		{"serve.submit_ms", "ms"}, {"serve.result_ms", "ms"}, {"serve.cache_hits", "count"},
		{"runtime.gc_cycles", "count"}, {"runtime.alloc_mb", "MB"}, {"runtime.mallocs", "count"},
		{"bench.wall_s", "s"}, {"bench.trace_overhead_frac", "fraction"},
	}...)
}()

type metricDef struct{ name, unit string }

// daemonHitsPerRep fixes the work of one daemon rep: the daemon retains
// every sweep it served, so a fixed count keeps memory comparable.
const daemonHitsPerRep = 150

// minReps is the least number of reps a timed run makes.
const minReps = 3

// runDeadline bounds a whole benchmark run, children included.
const runDeadline = 170 * time.Second

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "rep":
			os.Exit(repMain(os.Args[2:]))
		case "digests":
			os.Exit(digestsMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

// pinned is one committed point of the default seed: its digest and the
// frames its simulated network transmitted.
type pinned struct {
	Digest string  `json:"digest"`
	Frames float64 `json:"frames"`
}

func loadDigests() (map[string][]pinned, error) {
	var d map[string][]pinned
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", defaultSeed, "workload seed (passed to the simulator as SeedSalt)")
	seconds := fs.Float64("seconds", 10, "how long a timed run measures")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	digests, err := loadDigests()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	// Children are killed if a run overstays; a run normally takes about
	// --seconds plus one rep.
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	b := &bench{ctx: ctx, w: w, seed: *seed, dir: *dir, pinned: digests[w.name]}
	var res *result
	if *traceMode == 0 {
		res, err = b.endToEnd(time.Duration(*seconds * float64(time.Second)))
	} else {
		res, err = b.layers()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// pinnedPoints is how many points of the default seed digests.json pins
// per workload. A run cycles through points 0 … pinnedPoints-1 of its seed,
// so every default-seed rep is checked against a committed digest however
// many reps a run makes.
const pinnedPoints = 12

// digestsMain prints the digests.json entries for the default seed's pinned
// points of every workload (run it when a change legitimately alters the
// simulated output, and say so in the change).
func digestsMain(args []string) int {
	fs := flag.NewFlagSet("digests", flag.ContinueOnError)
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	out := map[string][]pinned{}
	for _, w := range workloads {
		b := &bench{ctx: context.Background(), w: w, seed: defaultSeed, dir: *dir}
		for i := 0; i < pinnedPoints; i++ {
			r, err := b.rep(modePlain, i)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				return 1
			}
			out[w.name] = append(out[w.name], pinned{r.Digest, r.Counts[framesCount]})
		}
		if b.failed > 0 {
			b.verdict(nil)
			return 1
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// bench runs reps of one workload and checks them.
type bench struct {
	ctx    context.Context
	w      workload
	seed   int64
	dir    string
	pinned []pinned // committed points of the default seed; nil while regenerating them

	attempted, failed int
	problems          []string
}

// rep runs point i of the seed in one child process and folds its
// correctness verdict in.
func (b *bench) rep(mode string, point int) (*repReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"rep", "-workload", b.w.name, "-seed", fmt.Sprint(b.seed), "-point", fmt.Sprint(point),
		"-mode", mode, "-dir", b.dir}
	cmd := exec.CommandContext(b.ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("rep %s point %d (%s): %w", b.w.name, point, mode, err)
	}
	var r repReport
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("rep %s point %d (%s): report: %w", b.w.name, point, mode, err)
	}
	b.attempted += r.Ops
	b.failed += r.Failed
	b.problems = append(b.problems, r.Problems...)
	if b.seed != defaultSeed || b.pinned == nil {
		return &r, nil
	}
	switch {
	case point >= len(b.pinned):
		b.failed++
		b.problems = append(b.problems, fmt.Sprintf("point %d (%s): no committed digest", point, mode))
	case r.Digest != b.pinned[point].Digest:
		b.failed++
		b.problems = append(b.problems, fmt.Sprintf("point %d (%s): digest %s, committed %s",
			point, mode, r.Digest, b.pinned[point].Digest))
	}
	return &r, nil
}

func (b *bench) verdict(metrics map[string]metricValue) *result {
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
}

// refFrames is the mean frame count of the committed points: the size of
// the workload's reference point (0 for the daemon).
func (b *bench) refFrames() float64 {
	var s float64
	for _, p := range b.pinned {
		s += p.Frames
	}
	if len(b.pinned) == 0 {
		return 0
	}
	return s / float64(len(b.pinned))
}

// endToEnd runs points 0, 1, 2, ... of the seed (cycling after
// pinnedPoints), one untraced rep each, for about the budget (at least
// minReps).
//
// A batch point's host time grows with the work its seed happens to draw
// (heavy-tailed flow sizes), so batch cpu_s is reported for the workload's
// reference point: the run's CPU time per frame its simulated network
// transmitted, times the reference frame count. Frames are simulated
// output, so a change that keeps the output identical cannot change them,
// however few events or allocations it spends. The daemon's cpu_s is per
// cached resubmission and needs no scaling. Wall time is not an end-to-end metric: on a shared VM
// it spreads with CPU steal far more than CPU time does (README.md).
func (b *bench) endToEnd(budget time.Duration) (*result, error) {
	start := time.Now()
	ref := b.refFrames()
	var walls, setups, rss, cpus []float64
	var cpuSum, frames float64
	for i := 0; ; i++ {
		// Stop once another rep would more likely overshoot the budget
		// than fall short of it: a run lasts about the budget.
		if elapsed := time.Since(start); i >= minReps && elapsed+elapsed/time.Duration(2*i) >= budget {
			break
		}
		r, err := b.rep(modePlain, i%pinnedPoints)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.SetupS)
		rss = append(rss, r.PeakRSSMB)
		walls = append(walls, r.WallS...)
		cpus = append(cpus, r.CPUS)
		if fr := r.Counts[framesCount]; ref > 0 && fr > 0 {
			cpuSum += r.CPUS
			frames += fr
		}
	}
	vals := map[string]float64{"setup_s": median(setups), "peak_rss_mb": median(rss)}
	if ref > 0 {
		vals["cpu_s"] = cpuSum / frames * ref
	} else {
		vals["cpu_s"] = median(cpus)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d reps, %d timed operations in %.1fs\n",
		b.w.name, b.seed, len(setups), len(walls), time.Since(start).Seconds())
	return b.verdict(metricsOf(endToEndMetrics, vals)), nil
}

// layers runs point 0 three times, each in its own process: untraced,
// under the CPU profiler, and with the tracing seams armed. All three must
// produce the same digest.
func (b *bench) layers() (*result, error) {
	var reps [3]*repReport
	for i, mode := range []string{modePlain, modeProfile, modeSpans} {
		r, err := b.rep(mode, 0)
		if err != nil {
			return nil, err
		}
		reps[i] = r
	}
	plain, prof, traced := reps[0], reps[1], reps[2]
	for _, r := range reps[1:] {
		if r.Digest != plain.Digest {
			b.failed++
			b.problems = append(b.problems, fmt.Sprintf("traced digest %s differs from untraced %s", r.Digest, plain.Digest))
		}
	}
	shares, err := profileShares(b.ctx, prof.Profile)
	if err != nil {
		return nil, err
	}
	if err := os.Remove(prof.Profile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}

	vals := map[string]float64{}
	for k, v := range plain.Counts {
		vals[k] = v
	}
	for k, v := range traced.Counts {
		if _, ok := vals[k]; !ok {
			vals[k] = v
		}
	}
	for _, p := range selfFracPkgs {
		vals[p+".self_frac"] = shares[p]
	}
	if b.w.spec == nil {
		vals["serve.hit_p50_ms"] = 1e3 * median(plain.WallS)
		vals["serve.hit_p90_ms"] = 1e3 * quantile(plain.WallS, 0.9)
	}
	plainWall, tracedWall := sum(plain.WallS), sum(traced.WallS)
	if plainWall > 0 {
		vals["sim.events_per_s"] = vals["sim.events"] / plainWall
		vals["bench.trace_overhead_frac"] = tracedWall/plainWall - 1
	}
	if fr, ref := vals[framesCount], b.refFrames(); fr > 0 && ref > 0 {
		vals["bench.wall_s"] = plainWall / fr * ref
	} else {
		vals["bench.wall_s"] = median(plain.WallS)
	}
	b.logShares(shares)
	return b.verdict(metricsOf(perLayerMetrics, vals)), nil
}

// metricsOf renders the declared metrics from computed values; a layer the
// workload does not exercise reads 0.
func metricsOf(defs []metricDef, vals map[string]float64) map[string]metricValue {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[d.name] = metricValue{v, d.unit}
	}
	return m
}

func (b *bench) logShares(shares map[string]float64) {
	keys := make([]string, 0, len(shares))
	for k := range shares {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return shares[keys[i]] > shares[keys[j]] })
	fmt.Fprintf(os.Stderr, "perfbench: %s profile shares:", b.w.name)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, " %s %.1f%%", k, 100*shares[k])
	}
	fmt.Fprintln(os.Stderr)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
