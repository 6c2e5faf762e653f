package core

import (
	"math/rand"
	"testing"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// scanAggregates is the reference for refreshAggregates: Σ τ, max τ and the
// active count from a full scan of every (port, prio) slot of the table.
func scanAggregates(t *SojournTable, s StateView, floor sim.Duration) (sum, maxTau sim.Duration, active int) {
	for _, q := range t.queues {
		if q == nil || q.n == 0 {
			continue
		}
		tau := q.tau(s, q.prio, t.excludePause)
		if tau < floor {
			tau = floor
		}
		sum += tau
		if tau > maxTau {
			maxTau = tau
		}
		active++
	}
	return sum, maxTau, active
}

// checkLive asserts that live holds exactly the queues with packets, each
// at its recorded slot.
func checkLive(t *testing.T, tab *SojournTable) {
	t.Helper()
	want := 0
	for _, q := range tab.queues {
		if q != nil && q.n > 0 {
			want++
			if q.slot >= len(tab.live) || tab.live[q.slot] != q {
				t.Fatalf("active queue (prio %d, n %d) missing from live at slot %d", q.prio, q.n, q.slot)
			}
		}
	}
	if len(tab.live) != want {
		t.Fatalf("live holds %d queues, %d are active", len(tab.live), want)
	}
}

// Twin tables: driven through the same random history over 64 ports × 8
// priorities (with PFC pause time, paused egresses and dequeues from empty
// queues), the live-set aggregates of one table equal bit for bit a full
// scan of its twin at every step.
func TestSojournLiveSetMatchesFullScan(t *testing.T) {
	const ports = 64
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newFakeState()
		s.ports = ports
		exclude := seed%2 == 0
		a, b := NewSojournTable(exclude), NewSojournTable(exclude)

		type key struct{ port, prio int }
		resident := make(map[key][]*pkt.Packet)
		var keys []key // queues with residents, for uniform dequeue picks

		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // enqueue, concentrated on a few hot ingress ports
				k := key{rng.Intn(8), rng.Intn(pkt.NumPriorities)}
				if rng.Intn(4) == 0 {
					k.port = rng.Intn(ports)
				}
				egress := rng.Intn(ports)
				s.qout[[2]int{egress, k.prio}] = int64(rng.Intn(300_000))
				if rng.Intn(8) == 0 {
					s.drain[[2]int{egress, k.prio}] = 0 // egress paused: μ = 0
					s.pausedFor[[2]int{egress, k.prio}] = sim.Duration(rng.Intn(40)) * sim.Microsecond
				} else {
					delete(s.drain, [2]int{egress, k.prio})
				}
				p := admit(k.port, k.prio, egress)
				a.OnEnqueue(s, p)
				b.OnEnqueue(s, p)
				if len(resident[k]) == 0 {
					keys = append(keys, k)
				}
				resident[k] = append(resident[k], p)
			case op < 7: // dequeue a resident packet
				if len(keys) == 0 {
					continue
				}
				ki := rng.Intn(len(keys))
				k := keys[ki]
				ps := resident[k]
				i := rng.Intn(len(ps))
				a.OnDequeue(s, ps[i])
				b.OnDequeue(s, ps[i])
				resident[k] = append(ps[:i], ps[i+1:]...)
				if len(resident[k]) == 0 {
					keys[ki] = keys[len(keys)-1]
					keys = keys[:len(keys)-1]
				}
			case op < 8: // dequeue from an empty queue
				k := key{rng.Intn(ports), rng.Intn(pkt.NumPriorities)}
				if len(resident[k]) > 0 {
					continue
				}
				p := admit(k.port, k.prio, rng.Intn(ports))
				a.OnDequeue(s, p)
				b.OnDequeue(s, p)
			default: // advance time and PFC pause time
				s.now += sim.Duration(rng.Intn(20)) * sim.Microsecond
				for i := rng.Intn(4); i > 0; i-- {
					j, prio := rng.Intn(ports), rng.Intn(pkt.NumPriorities)
					s.paused[[2]int{j, prio}] += sim.Duration(rng.Intn(30)) * sim.Microsecond
				}
			}

			floor := []sim.Duration{sim.Microsecond, 5 * sim.Microsecond}[rng.Intn(2)]
			sum, n := a.SumActiveTau(s, floor)
			maxTau, nMax := a.MaxActiveTau(s, floor)
			wantSum, wantMax, wantN := scanAggregates(b, s, floor)
			if sum != wantSum || maxTau != wantMax || n != wantN || nMax != wantN {
				t.Fatalf("seed %d step %d: live (Σ %d, max %d, n %d/%d), scan (Σ %d, max %d, n %d)",
					seed, step, sum, maxTau, n, nMax, wantSum, wantMax, wantN)
			}
			checkLive(t, a)
		}
	}
}

// BenchmarkL2BMIngressThreshold measures L2BM's sojourn update and Eq. 3
// threshold on a 64-port switch with 8 priorities and six active ingress
// queues: one op is an enqueue, a threshold query and the matching dequeue
// 100 ns later, so every query refreshes Σ τ.
func BenchmarkL2BMIngressThreshold(b *testing.B) {
	const ports, active, depth = 64, 6, 4
	s := newFakeState()
	s.ports = ports
	for j := 0; j < ports; j++ {
		s.qout[[2]int{j, pkt.PrioLossy}] = 60_000
		s.qout[[2]int{j, pkt.PrioLossless}] = 20_000
	}
	l := NewDefaultL2BM()
	var hot [active]*pkt.Packet
	for i := range hot {
		prio := []int{pkt.PrioLossy, pkt.PrioLossless}[i%2]
		for d := 0; d < depth; d++ {
			l.OnEnqueue(s, admit(i*7, prio, (i*11+d)%ports))
		}
		hot[i] = admit(i*7, prio, (i*11+depth)%ports)
	}
	var sink int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := hot[i%active]
		l.OnEnqueue(s, p)
		sink += l.IngressThreshold(s, p.InPort, p.InPrio)
		s.now += 100 * sim.Nanosecond
		l.OnDequeue(s, p)
	}
	if sink < 0 {
		b.Fatal("negative threshold")
	}
}
