package main

import (
	"math"
	"strings"
	"testing"
)

// cannedTraces is `go tool pprof -traces` output in the toolchain's format,
// cut down to five samples (700ms in all).
const cannedTraces = `File: perfbench
Build ID: f8dcea4cba5b5e4ac9dee25a1a4f0386ae76d88d
Type: cpu
Time: 2026-10-17 06:59:08 UTC
Duration: 505.86ms, Total samples = 700ms (138.38%)
-----------+-------------------------------------------------------
     200ms   internal/runtime/maps.(*Iter).Next
             l2bm/internal/dctcp.(*Receiver).mergeOOO
             l2bm/internal/dctcp.(*Receiver).OnData
             l2bm/internal/host.(*Host).HandleArrival
             l2bm/internal/sim.(*Engine).dispatch
-----------+-------------------------------------------------------
     100ms   runtime.mallocgc
             l2bm/internal/core.(*SojournTable).onEnqueue (inline)
             l2bm/internal/core.(*L2BM).OnEnqueue
             l2bm/internal/switchsim.(*Switch).admit
-----------+-------------------------------------------------------
     150ms   runtime.typePointers.next
             runtime.scanobject
             runtime.gcDrain
             runtime.gcDrainMarkWorkerFractional (inline)
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
     200ms   crypto/sha256.block
             main.digest
             main.runBatchRep
-----------+-------------------------------------------------------
      50ms   l2bm/internal/exp.RunHybridCtx.func3
             l2bm/internal/exp.RunHybrid
             main.runBatchRep
-----------+-------------------------------------------------------
`

func TestParseTracesAttributesInnermostSimulatorFrame(t *testing.T) {
	shares, err := parseTraces(strings.NewReader(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"dctcp":       200.0 / 700, // map iteration charged to its caller
		"core":        100.0 / 700, // allocation under an inlined frame
		runtimeBucket: 150.0 / 700, // GC worker: no simulator frame
		benchBucket:   200.0 / 700, // the benchmark's own hashing
		"exp":         50.0 / 700,  // closure frame
	}
	if len(shares) != len(want) {
		t.Fatalf("buckets %v, want %v", shares, want)
	}
	for b, w := range want {
		if math.Abs(shares[b]-w) > 1e-12 {
			t.Errorf("%s share = %v, want %v", b, shares[b], w)
		}
	}
}

func TestParseTracesRejectsEmptyAndMalformed(t *testing.T) {
	if _, err := parseTraces(strings.NewReader("File: x\nType: cpu\n")); err == nil {
		t.Error("a profile without samples parsed")
	}
	bad := "-----------+---\n  tenms   runtime.mallocgc\n-----------+---\n"
	if _, err := parseTraces(strings.NewReader(bad)); err == nil {
		t.Error("a sample line without a duration parsed")
	}
}

func TestFrameBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"l2bm/internal/sim.(*Engine).Run":         "sim",
		"l2bm/internal/serve.(*Server).run.func1": "serve",
		"l2bm/internal/psim":                      "psim",
		"main.(*client).sweep":                    benchBucket,
		"runtime.mallocgc":                        "",
		"internal/runtime/maps.(*Iter).Next":      "",
		"encoding/json.Unmarshal":                 "",
	} {
		if got := frameBucket(fn); got != want {
			t.Errorf("frameBucket(%q) = %q, want %q", fn, got, want)
		}
	}
}
