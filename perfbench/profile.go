package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// internalPrefix marks the simulator's own packages in symbol names.
const internalPrefix = "l2bm/internal/"

// benchBucket collects samples whose innermost attributed frame is the
// benchmark's own code (package main); runtimeBucket collects samples with
// no simulator or benchmark frame at all.
const (
	benchBucket   = "bench"
	runtimeBucket = "runtime"
)

// frameBucket names the layer a stack frame belongs to, or "" when the
// frame is neither a simulator package nor the benchmark itself.
func frameBucket(fn string) string {
	if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") {
		return benchBucket
	}
	return ""
}

// parseTraces reads `go tool pprof -traces` output and charges each
// sample's value to the innermost simulator package on its stack, so Go
// map, allocation and GC-assist time lands on the layer that called it.
// Samples without such a frame are charged to runtime. It returns each
// bucket's share of the total.
//
// Each sample block follows a separator line; its first line is
// "<value> <innermost function>", the callers follow one per line, and
// inlined frames carry an "(inline)" suffix.
func parseTraces(r io.Reader) (map[string]float64, error) {
	totals := map[string]time.Duration{}
	var all time.Duration
	var cur time.Duration // value of the block being read; 0 before its first line
	bucket := ""          // innermost attributed frame of that block
	inBlock := false
	flush := func() {
		if cur > 0 {
			if bucket == "" {
				bucket = runtimeBucket
			}
			totals[bucket] += cur
			all += cur
		}
		bucket, cur = "", 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		fields := strings.Fields(line)
		if !inBlock || len(fields) == 0 {
			continue // header lines
		}
		if cur == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil || d <= 0 || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			cur, fields = d, fields[1:]
		}
		if bucket == "" {
			bucket = frameBucket(fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if all == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	shares := make(map[string]float64, len(totals))
	for b, v := range totals {
		shares[b] = float64(v) / float64(all)
	}
	return shares, nil
}

// profileShares runs the toolchain's pprof over a CPU profile and
// attributes its samples by package.
func profileShares(ctx context.Context, path string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", path)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(bytes.NewReader(out))
}
