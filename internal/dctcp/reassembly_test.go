package dctcp

import (
	"math/rand"
	"testing"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// mapReassembler is the reference reassembly model: out-of-order segments
// in a map keyed by seq, folded into the prefix by rescanning the whole map
// until a pass merges nothing. Receiver must agree with it on every ACK.
type mapReassembler struct {
	recvNxt  int64
	ooo      map[int64]int64 // seq -> end
	expected int64
	complete bool
}

func (m *mapReassembler) handle(p *pkt.Packet) (ackSeq int64, ece bool) {
	if p.FlowFin && p.End() > m.expected {
		m.expected = p.End()
	}
	if p.Seq <= m.recvNxt {
		if p.End() > m.recvNxt {
			m.recvNxt = p.End()
		}
		for progressed := true; progressed; {
			progressed = false
			for seq, end := range m.ooo {
				if seq <= m.recvNxt {
					if end > m.recvNxt {
						m.recvNxt = end
					}
					delete(m.ooo, seq)
					progressed = true
				}
			}
		}
	} else if end, ok := m.ooo[p.Seq]; !ok || p.End() > end {
		m.ooo[p.Seq] = p.End()
	}
	if m.expected > 0 && m.recvNxt >= m.expected {
		m.complete = true
	}
	return m.recvNxt, p.CE
}

// Differential: on random MSS-aligned streams with drops, duplicates,
// truncated copies, go-back-N rewinds from a random sndUna and an early FIN,
// the sorted-buffer Receiver emits exactly the reference model's ACKs,
// buffers exactly its segments in ascending seq order, and is empty once
// the flow completes.
func TestReceiverMatchesMapReassembly(t *testing.T) {
	const mss = int64(pkt.MTUPayload)
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		segs := int64(1 + rng.Intn(200))
		size := segs*mss - int64(rng.Intn(int(mss)))
		env := &fakeEnv{eng: sim.NewEngine(seed)}
		done := 0
		r := NewReceiver(env, 1, 1, 0, func(sim.Time) { done++ })
		ref := &mapReassembler{ooo: make(map[int64]int64)}

		deliver := func(seq int64, payload int, ce bool) {
			if rem := size - seq; int64(payload) > rem {
				payload = int(rem)
			}
			p := pkt.NewData(1, 0, 1, pkt.PrioLossy, pkt.ClassLossy, seq, payload)
			p.FlowFin = p.End() == size
			p.CE = ce
			wantSeq, wantECE := ref.handle(p)
			r.HandleData(p)
			ack := env.sent[len(env.sent)-1]
			if ack.Seq != wantSeq || ack.ECE != wantECE {
				t.Fatalf("seed %d: seq %d: ACK (%d, %v), want (%d, %v)",
					seed, seq, ack.Seq, ack.ECE, wantSeq, wantECE)
			}
			if r.Received() != ref.recvNxt || r.Complete() != ref.complete {
				t.Fatalf("seed %d: seq %d: Received %d complete %v, want %d %v",
					seed, seq, r.Received(), r.Complete(), ref.recvNxt, ref.complete)
			}
			if len(r.ooo) != len(ref.ooo) {
				t.Fatalf("seed %d: seq %d: %d segments buffered, want %d", seed, seq, len(r.ooo), len(ref.ooo))
			}
			for i, sg := range r.ooo {
				if sg.end != ref.ooo[sg.seq] || (i > 0 && sg.seq <= r.ooo[i-1].seq) {
					t.Fatalf("seed %d: seq %d: buffer %v out of order or disagrees with %v", seed, seq, r.ooo, ref.ooo)
				}
			}
		}

		lossy := true
		nxt := int64(0)
		for step := 0; !ref.complete; step++ {
			if step == 2000 {
				lossy = false // guarantee completion
			}
			if nxt >= size {
				// Go-back-N from a random sndUna at or below the
				// receiver's cumulative ACK.
				nxt = rng.Int63n(ref.recvNxt/mss+1) * mss
			}
			ce := rng.Intn(4) == 0
			switch op := rng.Intn(20); {
			case lossy && op < 4: // dropped
			case op < 6: // duplicated
				deliver(nxt, int(mss), ce)
				deliver(nxt, int(mss), !ce)
			case op < 7: // truncated copy, then the full segment
				deliver(nxt, 1+rng.Intn(int(mss)), ce)
				deliver(nxt, int(mss), ce)
			case lossy && op < 8: // the FIN segment overtakes a hole
				deliver((segs-1)*mss, int(mss), ce)
				deliver(nxt, int(mss), ce)
			case op < 9: // rewind mid-stream
				nxt = rng.Int63n(ref.recvNxt/mss+1) * mss
				deliver(nxt, int(mss), ce)
			default:
				deliver(nxt, int(mss), ce)
			}
			nxt += mss
		}
		if done != 1 || len(r.ooo) != 0 || cap(r.ooo) != 0 {
			t.Fatalf("seed %d: onDone fired %d times, buffer len %d cap %d after completion",
				seed, done, len(r.ooo), cap(r.ooo))
		}
		// Late retransmissions after completion are ACKed as duplicates.
		deliver(rng.Int63n(segs)*mss, int(mss), false)
	}
}

// poolEnv recycles every ACK the receiver emits, so a benchmark measures
// the reassembly path rather than packet allocation.
type poolEnv struct {
	fakeEnv
	pool *pkt.Pool
}

func (e *poolEnv) Pool() *pkt.Pool    { return e.pool }
func (e *poolEnv) Send(p *pkt.Packet) { e.pool.Put(p) }

// BenchmarkReceiverLossRecovery measures the receiver's loss-recovery path:
// one op is a window of 256 segments of which every 8th is lost (224
// buffered behind 32 holes), then the go-back-N resend of the whole window
// from the first hole.
func BenchmarkReceiverLossRecovery(b *testing.B) {
	const (
		window = 256
		mss    = int64(pkt.MTUPayload)
	)
	pool := pkt.NewPool()
	env := &poolEnv{fakeEnv: fakeEnv{eng: sim.NewEngine(1)}, pool: pool}
	r := NewReceiver(env, 1, 1, 0, nil)
	data := pkt.NewData(1, 0, 1, pkt.PrioLossy, pkt.ClassLossy, 0, int(mss))
	base := int64(0)
	op := func() {
		for i := int64(0); i < window; i++ {
			if i%8 != 0 {
				data.Seq = base + i*mss
				r.HandleData(data)
			}
		}
		for i := int64(0); i < window; i++ {
			data.Seq = base + i*mss
			r.HandleData(data)
		}
		base += window * mss
	}
	op() // size the buffer outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	if r.Received() != base || len(r.ooo) != 0 {
		b.Fatalf("received %d of %d, %d segments still buffered", r.Received(), base, len(r.ooo))
	}
}
