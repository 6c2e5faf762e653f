package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"l2bm/internal/core"
	"l2bm/internal/exp"
	"l2bm/internal/pkt"
	"l2bm/internal/topo"
)

// span is one timed interval at a layer boundary, in nanoseconds since the
// log's origin. Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; write dumps them once the rep ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	l.spans = append(l.spans, span{Name: name, Parent: parent,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
	return len(l.spans) - 1
}

func (l *spanLog) write(dir, name, salt string) error {
	path := filepath.Join(dir, "spans", fmt.Sprintf("%s-%s.json", name, salt))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// policyCalls aggregates every call into the core.Policy seam. The classic
// and hybrid engines are single-threaded, so plain counters suffice.
type policyCalls struct {
	n  uint64
	ns int64
}

// timedPolicy wraps a policy and times each call into it.
type timedPolicy struct {
	p core.Policy
	c *policyCalls
}

func (t *timedPolicy) Name() string { return t.p.Name() }

func (t *timedPolicy) IngressThreshold(s core.StateView, port, prio int) int64 {
	t0 := time.Now()
	v := t.p.IngressThreshold(s, port, prio)
	t.c.n++
	t.c.ns += int64(time.Since(t0))
	return v
}

func (t *timedPolicy) EgressThreshold(s core.StateView, port, prio int) int64 {
	t0 := time.Now()
	v := t.p.EgressThreshold(s, port, prio)
	t.c.n++
	t.c.ns += int64(time.Since(t0))
	return v
}

func (t *timedPolicy) OnEnqueue(s core.StateView, p *pkt.Packet) {
	t0 := time.Now()
	t.p.OnEnqueue(s, p)
	t.c.n++
	t.c.ns += int64(time.Since(t0))
}

func (t *timedPolicy) OnDequeue(s core.StateView, p *pkt.Packet) {
	t0 := time.Now()
	t.p.OnDequeue(s, p)
	t.c.n++
	t.c.ns += int64(time.Since(t0))
}

// timedPreemptive keeps the optional preemption capability visible through
// the wrapper: the MMU type-asserts core.PreemptivePolicy once per switch.
type timedPreemptive struct {
	timedPolicy
	pp core.PreemptivePolicy
}

func (t *timedPreemptive) Preempt(s core.StateView, ev core.Evictor, p *pkt.Packet, in, out int) bool {
	t0 := time.Now()
	v := t.pp.Preempt(s, ev, p, in, out)
	t.c.n++
	t.c.ns += int64(time.Since(t0))
	return v
}

// timedFactory builds the named policy behind the timing wrapper.
func timedFactory(name string, c *policyCalls) topo.PolicyFactory {
	return func() core.Policy {
		p := exp.NewPolicy(name)
		if pp, ok := p.(core.PreemptivePolicy); ok {
			return &timedPreemptive{timedPolicy{p, c}, pp}
		}
		return &timedPolicy{p, c}
	}
}
