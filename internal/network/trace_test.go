package network

// A pinned delivery trace at 64 nodes. The digest below hashes every
// delivery in global firing order, so any change to how the interconnect
// schedules its events — fan-out, channel handoff, heap tie-breaking — that
// moves a single delivery in time or in order fails this test. Its value
// must only change with a deliberate, documented change in network timing.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/sim"
)

// traceSink hashes deliveries as they happen and replies to some of them,
// so handler-issued sends interleave with the scheduled traffic.
type traceSink struct {
	id    NodeID
	net   *Network
	k     *sim.Kernel
	h     *traceHash
	lastT sim.Time // last delivery time on this node's inbound channel
	t     *testing.T
}

type traceHash struct {
	buf        [32]byte
	hash       hash.Hash
	deliveries int
}

func (s *traceSink) record(kind byte, key uint64) {
	now := s.k.Now()
	if now < s.lastT {
		s.t.Fatalf("node %d: delivery at %d after one at %d", s.id, now, s.lastT)
	}
	s.lastT = now
	b := s.h.buf[:0]
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint64(b, uint64(now))
	b = binary.LittleEndian.AppendUint16(b, uint16(s.id))
	b = binary.LittleEndian.AppendUint64(b, key)
	s.h.hash.Write(b)
	s.h.deliveries++
}

func (s *traceSink) DeliverOrdered(m *Message) {
	s.record('o', m.Seq)
	// Every seventh ordered delivery answers its sender point to point,
	// from inside the handler at the delivery instant.
	if id := m.Payload.(int); (id+int(s.id))%7 == 0 && m.From != s.id {
		s.net.SendUnordered(s.id, m.From, 72, -id)
	}
}

func (s *traceSink) DeliverUnordered(m *Message) {
	s.record('u', uint64(int64(m.Payload.(int))))
}

// traceDigest runs the fixed 64-node mixed workload and returns the hex
// SHA-256 of its delivery trace plus the number of deliveries.
func traceDigest(t *testing.T, jitter int) (string, int) {
	const nodes = 64
	k := sim.NewKernel()
	n := New(k, Config{
		Nodes:        nodes,
		BandwidthMBs: 1200,
		JitterNs:     jitter,
		JitterSeed:   99,
		Recycle:      true,
	})
	h := &traceHash{hash: sha256.New()}
	for i := 0; i < nodes; i++ {
		n.SetHandler(NodeID(i), &traceSink{id: NodeID(i), net: n, k: k, h: h, t: t})
	}
	rng := sim.NewRNG(2026)
	for i := 1; i <= 1500; i++ {
		id := i
		src := NodeID(rng.Intn(nodes))
		at := sim.Time(rng.Intn(12000))
		switch r := rng.Intn(10); {
		case r < 4: // full broadcast
			k.Schedule(at, func() { n.SendOrdered(src, n.FullMask(), 8, id) })
		case r < 7: // multicast to a random subset, always including the sender
			var mask Mask
			mask.Set(src)
			for j := 0; j < 1+rng.Intn(12); j++ {
				mask.Set(NodeID(rng.Intn(nodes)))
			}
			k.Schedule(at, func() { n.SendOrdered(src, mask, 8, id) })
		case r < 8: // delayed multicast
			mask := MaskOf(src, NodeID(rng.Intn(nodes)))
			k.Schedule(at, func() { n.SendOrderedDelayed(80, src, mask, 8, id) })
		default: // unordered unicast, sometimes delayed
			dst := NodeID(rng.Intn(nodes))
			if r == 9 {
				k.Schedule(at, func() { n.SendUnorderedDelayed(25, src, dst, 72, id) })
			} else {
				k.Schedule(at, func() { n.SendUnordered(src, dst, 72, id) })
			}
		}
	}
	k.Drain()
	return hex.EncodeToString(h.hash.Sum(nil)), h.deliveries
}

// TestDeliveryTraceDigest64 pins the delivery trace of a 64-node mixed
// workload of broadcasts, multicasts and unicasts, with and without jitter.
// Delivery times on every inbound channel must also never decrease.
func TestDeliveryTraceDigest64(t *testing.T) {
	cases := []struct {
		name       string
		jitter     int
		digest     string
		deliveries int
	}{
		{"nojitter", 0, "d03132f3f786a428adbbdfe0c936c14c9a78d73ad5e2a3875e6c712214a3a80b", 46699},
		{"jitter", 173, "8ef220e6f566469eb581bd419bfbe1dd26cb3716058198642dcf46a072733529", 46699},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, n := traceDigest(t, c.jitter)
			if got != c.digest || n != c.deliveries {
				t.Errorf("trace digest %s over %d deliveries, want %s over %d",
					got, n, c.digest, c.deliveries)
			}
		})
	}
}
