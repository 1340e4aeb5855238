package main

import (
	"time"

	"repro/internal/network"
	"repro/internal/sim"
)

// scheduleStepNs times one Step plus the Schedule its event makes, on a
// kernel held at a constant pending depth: the median of three rounds.
func scheduleStepNs(depth int) float64 {
	depth = max(depth, 1)
	const steps = 1_000_000
	var rounds []float64
	for round := 0; round < 3; round++ {
		k := sim.NewKernel()
		rng := sim.NewRNG(uint64(round) + 1)
		var fn func()
		fn = func() { k.Schedule(sim.Time(1+rng.Intn(2000)), fn) }
		for i := 0; i < depth; i++ {
			k.Schedule(sim.Time(rng.Intn(2000)), fn)
		}
		for i := 0; i < steps/10; i++ {
			k.Step()
		}
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			k.Step()
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/steps)
	}
	return median(rounds)
}

type nopHandler struct{}

func (nopHandler) DeliverOrdered(*network.Message)   {}
func (nopHandler) DeliverUnordered(*network.Message) {}

// broadcastCost sends full-mask ordered messages to no-op handlers, one at
// a time, and returns kernel events per broadcast and host ns per
// broadcast (median of three rounds).
func broadcastCost(nodes int) (events, ns float64) {
	const sends = 20000
	var rounds []float64
	for round := 0; round < 3; round++ {
		k := sim.NewKernel()
		net := network.New(k, network.Config{Nodes: nodes, BandwidthMBs: 1e6, Recycle: true})
		for i := 0; i < nodes; i++ {
			net.SetHandler(network.NodeID(i), nopHandler{})
		}
		full := net.FullMask()
		fired := k.Fired()
		t0 := time.Now()
		for i := 0; i < sends; i++ {
			net.SendOrdered(network.NodeID(i%nodes), full, 8, nil)
			k.Drain()
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/sends)
		events = float64(k.Fired()-fired) / sends
	}
	return events, median(rounds)
}
