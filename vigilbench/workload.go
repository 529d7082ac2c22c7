package main

import (
	"fmt"

	"vigil/internal/engine"
	"vigil/internal/schedule"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/traffic"
)

// workload is one input family of the benchmark; BENCHMARK.json records why
// each was chosen. build constructs a fresh
// engine with the workload's failures in place; the seed drives both the
// engine's randomness and which links fail, so two builds with one seed
// produce bit-identical epochs.
type workload struct {
	name string
	// warmup epochs run before the timed window; they fill the engine's
	// and the pipeline's buffers (and on dc-churn build the delta cache).
	warmup int
	build  func(seed uint64) (engine.Engine, error)
}

// workloads lists every workload in the order the benchmark runs them.
var workloads = []*workload{
	{
		name:   "paper-steady",
		warmup: 4,
		build: func(seed uint64) (engine.Engine, error) {
			return flowPlane(seed, topology.DefaultSimConfig, func(topo *topology.Topology, rng *stats.RNG) []topology.LinkID {
				return pick(rng, topo.LinksOfClass(topology.L1Down), 4)
			}, 0.01)
		},
	},
	{
		name:   "spine-storm",
		warmup: 4,
		build: func(seed uint64) (engine.Engine, error) {
			return flowPlane(seed, topology.DefaultSimConfig, spineLinks, 0.02)
		},
	},
	{
		name:   "packet-pods",
		warmup: 3,
		build:  packetPods,
	},
	{
		name:   "dc-churn",
		warmup: 3,
		build:  dcChurn,
	},
}

func workloadNamed(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// streamLinks derives the link choices from the seed apart from the
// engine's own use of it.
const streamLinks uint64 = 0x6c696e6b73

// pick draws n distinct links from pool.
func pick(rng *stats.RNG, pool []topology.LinkID, n int) []topology.LinkID {
	perm := rng.Perm(len(pool))
	out := make([]topology.LinkID, n)
	for i := range out {
		out[i] = pool[perm[i]]
	}
	return out
}

// spineLinks returns every directed link of one T2 switch: its downlinks
// to each pod's T1s and those T1s' uplinks back to it.
func spineLinks(topo *topology.Topology, rng *stats.RNG) []topology.LinkID {
	cfg := topo.Cfg
	l := rng.Intn(cfg.T2)
	links := append([]topology.LinkID(nil), topo.Switches[topo.T2(l)].Downlinks...)
	for p := 0; p < cfg.Pods; p++ {
		for j := 0; j < cfg.T1PerPod; j++ {
			links = append(links, topo.Switches[topo.T1(p, j)].Uplinks[l])
		}
	}
	return links
}

// flowPlane builds a flow-plane engine with the product defaults
// (Parallelism 0 = GOMAXPROCS, paper workload) and fails the chosen links.
func flowPlane(seed uint64, cfg topology.Config, choose func(*topology.Topology, *stats.RNG) []topology.LinkID, rate float64) (engine.Engine, error) {
	topo, err := topology.New(cfg)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{Plane: engine.Flow, Topo: topo, Seed: seed})
	if err != nil {
		return nil, err
	}
	for _, l := range choose(topo, stats.DeriveRNG(seed, streamLinks)) {
		if err := eng.InjectFailure(l, rate); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// packetPodsTopo is an 8-pod Clos small enough for packet-level emulation.
var packetPodsTopo = topology.Config{Pods: 8, ToRsPerPod: 4, T1PerPod: 4, T2: 4, HostsPerToR: 2}

func packetPods(seed uint64) (engine.Engine, error) {
	topo, err := topology.New(packetPodsTopo)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{
		Plane: engine.Packet,
		Topo:  topo,
		Seed:  seed,
		Workload: traffic.Workload{
			Pattern:        traffic.Uniform{},
			ConnsPerHost:   traffic.IntRange{Lo: 10, Hi: 10},
			PacketsPerFlow: traffic.IntRange{Lo: 75, Hi: 150},
		},
	})
	if err != nil {
		return nil, err
	}
	l := pick(stats.DeriveRNG(seed, streamLinks), topo.LinksOfClass(topology.L1Down), 1)[0]
	return eng, eng.InjectFailure(l, 0.01)
}

func dcChurn(seed uint64) (engine.Engine, error) {
	topo, err := topology.NewDatacenter(topology.DatacenterSimConfig)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{
		Plane:         engine.Flow,
		Topo:          topo,
		Seed:          seed,
		TracerouteCap: 10,
		Incremental:   true,
	})
	if err != nil {
		return nil, err
	}
	l := pick(stats.DeriveRNG(seed, streamLinks), topo.LinksOfClass(topology.L1Down), 1)[0]
	return eng, eng.Schedule(l, schedule.Flap{Rate: 0.01, Period: 2, On: 1})
}
