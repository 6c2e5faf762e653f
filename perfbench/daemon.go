package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"l2bm/internal/exp"
	"l2bm/internal/serve"
)

// runDaemonRep starts an in-process l2bmd on loopback with an empty cache,
// fills the cache with the grid once (set-up), then resubmits the grid
// daemonHitsPerRep times from one closed-loop client, timing each
// resubmission from submit to full result body. Every hit body must equal
// the cold fill's bytes.
func runDaemonRep(salt, mode, dir string) (repReport, error) {
	const hits = daemonHitsPerRep
	start := time.Now()
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return repReport{}, err
	}
	cacheDir, err := os.MkdirTemp(tmp, "cache-")
	if err != nil {
		return repReport{}, err
	}
	defer os.RemoveAll(cacheDir)

	workers := runtime.NumCPU()
	if workers > 2 {
		workers = 2
	}
	srv, err := serve.New(serve.Config{Workers: workers, CacheDir: cacheDir})
	if err != nil {
		return repReport{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return repReport{}, err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // the rep is over; a slow close only delays exit
		<-served
	}()

	grid := daemonGrid(salt)
	reqBody, err := json.Marshal(grid)
	if err != nil {
		return repReport{}, err
	}
	c := &client{http: &http.Client{Timeout: 60 * time.Second}, base: "http://" + ln.Addr().String()}
	if mode == modeSpans {
		c.spans = newSpanLog()
	}
	cold, _, err := c.sweep(reqBody)
	if err != nil {
		return repReport{}, fmt.Errorf("cold fill: %w", err)
	}
	setup := time.Since(start).Seconds()

	rep := repReport{Ops: 1, SetupS: setup, Counts: map[string]float64{}}
	points, err := decodeEnvelope(cold)
	if err == nil {
		rep.Digest, err = resultDigest(points)
	}
	if err != nil {
		rep.Problems = append(rep.Problems, fmt.Sprintf("cold fill: %v", err))
	}
	for i, r := range points {
		rep.Problems = append(rep.Problems, checkResult(fmt.Sprintf("point %d (%s)", i, r.Policy), r)...)
	}
	if len(rep.Problems) > 0 {
		rep.Failed = 1
	}

	if c.spans != nil {
		cache := &exp.ResultCache{Dir: cacheDir}
		var gets []float64
		for _, sp := range grid.Specs {
			t0 := time.Now()
			_, _, ok := cache.Get(sp)
			t1 := time.Now()
			if !ok {
				return repReport{}, fmt.Errorf("warm cache missed %s at TCP load %v", sp.Policy, sp.TCPLoad)
			}
			c.spans.add("cache_get", -1, t0, t1)
			gets = append(gets, t1.Sub(t0).Seconds()*1e3)
		}
		rep.Counts["exp.cache_get_ms"] = median(gets)
	}
	if mode == modeProfile {
		rep.Profile = filepath.Join(dir, fmt.Sprintf("cpu-daemon_hits-%d.pprof", os.Getpid()))
		stop, err := startProfile(rep.Profile)
		if err != nil {
			return repReport{}, err
		}
		defer stop()
	}
	var ms0 runtime.MemStats
	if c.spans != nil {
		runtime.ReadMemStats(&ms0)
	}
	cpu0 := cpuSeconds()
	cacheHits := 0
	for i := 0; i < hits; i++ {
		t0 := time.Now()
		body, st, err := c.sweep(reqBody)
		rep.WallS = append(rep.WallS, time.Since(t0).Seconds())
		rep.Ops++
		switch {
		case err != nil:
			rep.Failed++
			rep.Problems = append(rep.Problems, fmt.Sprintf("hit %d: %v", i, err))
		case !bytes.Equal(body, cold):
			rep.Failed++
			rep.Problems = append(rep.Problems, fmt.Sprintf("hit %d: body differs from the cold fill", i))
		case st.CacheHits != len(grid.Specs):
			rep.Failed++
			rep.Problems = append(rep.Problems, fmt.Sprintf("hit %d: %d/%d points from cache", i, st.CacheHits, len(grid.Specs)))
		}
		cacheHits += st.CacheHits
	}
	rep.CPUS = (cpuSeconds() - cpu0) / float64(hits)
	if len(rep.Problems) > 8 {
		rep.Problems = rep.Problems[:8]
	}
	if c.spans == nil {
		return rep, nil
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	rep.Counts["serve.cache_hits"] = float64(cacheHits)
	rep.Counts["serve.submit_ms"] = c.medianMS("submit")
	rep.Counts["serve.result_ms"] = c.medianMS("result")
	rep.Counts["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	rep.Counts["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	rep.Counts["runtime.mallocs"] = float64(ms1.Mallocs - ms0.Mallocs)
	return rep, c.spans.write(dir, "daemon_hits", salt)
}

// client drives the daemon's public HTTP API. With spans set, every request
// is recorded as a span under its sweep's span.
type client struct {
	http  *http.Client
	base  string
	spans *spanLog
}

type sweepStatus struct {
	ID        string `json:"id"`
	Type      string `json:"type"`
	State     string `json:"state"`
	CacheHits int    `json:"cacheHits"`
	Error     string `json:"error"`
}

// sweep submits one sweep, follows its event stream to the terminal state
// and fetches the canonical result body.
func (c *client) sweep(reqBody []byte) ([]byte, sweepStatus, error) {
	t0 := time.Now()
	parent := -1
	if c.spans != nil {
		parent = c.spans.add("sweep", -1, t0, t0)
	}
	var st sweepStatus
	data, err := c.do(parent, "submit", http.MethodPost, "/v1/sweeps", reqBody, http.StatusAccepted)
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	if err != nil {
		return nil, st, fmt.Errorf("submit: %w", err)
	}
	events, err := c.do(parent, "events", http.MethodGet, "/v1/sweeps/"+st.ID+"/events", nil, http.StatusOK)
	if err != nil {
		return nil, st, fmt.Errorf("events: %w", err)
	}
	// The stream ends with the terminal state event.
	sc := bufio.NewScanner(bytes.NewReader(events))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev sweepStatus
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Type == "state" {
			st.State, st.CacheHits, st.Error = ev.State, ev.CacheHits, ev.Error
		}
	}
	if st.State != serve.StateDone {
		return nil, st, fmt.Errorf("sweep %s ended %q: %s", st.ID, st.State, st.Error)
	}
	body, err := c.do(parent, "result", http.MethodGet, "/v1/sweeps/"+st.ID+"/result", nil, http.StatusOK)
	if err != nil {
		return nil, st, fmt.Errorf("result: %w", err)
	}
	if c.spans != nil {
		c.spans.spans[parent].End = time.Since(c.spans.t0).Nanoseconds()
	}
	return body, st, nil
}

func (c *client) do(parent int, name, method, path string, body []byte, want int) ([]byte, error) {
	t0 := time.Now()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if c.spans != nil {
		c.spans.add(name, parent, t0, time.Now())
	}
	return data, nil
}

// medianMS is the median duration of the named request spans, in ms.
func (c *client) medianMS(name string) float64 {
	var xs []float64
	for _, s := range c.spans.spans {
		if s.Name == name {
			xs = append(xs, float64(s.End-s.Start)/1e6)
		}
	}
	return median(xs)
}
