package main

// netrun-ssme: the networked runtime without clients. SSME (the paper's
// protocol) runs on a ring sharded across 3 in-process nodes over loopback
// TCP, from a seeded random start, for a fixed round budget per trial;
// trials repeat until the timed region is used up. Every vertex moves every
// round, so frames are kilobytes and the kernels, the fingerprint, the
// gate's privilege scan and the journal dominate a round.

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"specstab/internal/netrun"
	"specstab/internal/scenario"
)

// sampleEvery is the round sampler's polling period; convergeMs
// interpolates between polls.
const sampleEvery = 5 * time.Millisecond

func ringSpec(p params, seed int64) netrun.Spec {
	return netrun.Spec{
		Scenario: &scenario.Scenario{
			Seed:     seed,
			Protocol: scenario.ProtocolSpec{Name: "ssme"},
			Topology: scenario.TopologySpec{Name: "ring", N: p.ringN},
			Daemon:   scenario.DaemonSpec{Name: "sync"},
			Init:     scenario.InitSpec{Mode: "random"},
		},
		Nodes: 3,
	}
}

func runRing(p params, tr *tracer) (*outcome, error) {
	o := &outcome{named: map[string]float64{}, layer: map[string]float64{}}
	rng := rand.New(rand.NewSource(p.seed))
	var converge, legit, replayS, heapPerRound []float64
	var wire, stalls, rounds int64
	for trial := 0; trial < p.ringTrials || o.elapsed < p.seconds; trial++ {
		cc := netrun.ClusterConfig{Spec: ringSpec(p, rng.Int63()), MaxRounds: p.ringRounds}
		var heap0 uint64
		if tr != nil {
			heap0 = liveHeap()
		}
		c, d, err := startCluster(cc, tr)
		if err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, d.Seconds())
		samp := sampleRounds(c.Node(0), tr)
		t0 := time.Now()
		sp := tr.begin("netrun.Cluster.Wait", 0, 0)
		err = c.Wait()
		tr.finish(sp)
		dur := time.Since(t0)
		samples := samp.stop()
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("trial %d: %w", trial, err)
		}
		st := make([]netrun.StatusReply, c.Nodes())
		for i := range st {
			st[i] = nodeStatus(c.Node(i), tr)
		}
		r := st[0].Round
		o.attempted += p.ringRounds
		// Single rounds are not visible from outside the nodes, so the
		// latency sample is the trial's mean time per committed round.
		o.add(chunk{ops: r, dur: dur, latMs: []float64{ms(dur) / float64(max(1, r))}})
		if r != p.ringRounds {
			o.violate("trial %d committed %d of %d rounds", trial, r, p.ringRounds)
		}
		legitRound := int64(-1)
		for i, s := range st {
			legitRound = max(legitRound, s.LegitRound)
			if s.FP != st[0].FP {
				o.violate("trial %d: node %d ends at fingerprint %s, node 0 at %s", trial, i, s.FP, st[0].FP)
			}
		}
		if legitRound >= 0 {
			converge = append(converge, convergeMs(samples, legitRound))
		}
		legit = append(legit, float64(legitRound))
		heap := o.markHeap()
		if tr != nil {
			heapPerRound = append(heapPerRound, (float64(heap)-float64(heap0))/float64(max(1, r)))
			stats := netrunStats(c, tr)
			wire += stats.bytesOut
			stalls += stats.stalls
			rounds += r
		}
		// The differential oracle: every node's journal replays bitwise.
		for i := 0; i < c.Nodes(); i++ {
			replayS = append(replayS, replayJournal(o, p, c.Node(i), tr))
		}
		c.Close()
	}
	sum := o.summarize()
	o.named["rounds_per_s"] = sum.rate
	o.named["converge_ms"] = median(converge)
	if len(converge) < len(legit) {
		o.violate("%d of %d trials never reached a legitimate configuration", len(legit)-len(converge), len(legit))
	}
	if tr == nil {
		return o, nil
	}
	l := o.layer
	l["netrun.round.us"] = 1e6 / sum.rate
	l["netrun.round.wire_bytes"] = float64(wire) / float64(max(1, rounds))
	l["netrun.round.barrier_stalls"] = float64(stalls)
	l["netrun.journal.heap_bytes_per_round"] = median(heapPerRound)
	l["netrun.gate.legit_round"] = median(legit)
	l["netrun.converge_ms"] = median(converge)
	l["netrun.replay.s"] = median(replayS)
	return o, nil
}

func nodeStatus(nd *netrun.Node, tr *tracer) netrun.StatusReply {
	sp := tr.begin("netrun.Node.Status", 0, 0)
	st := nd.Status()
	tr.finish(sp)
	return st
}

// replayJournal replays nd's journal through the in-process engine and
// records a violation unless it replays bitwise up to the node's final
// round and fingerprint. It returns the replay's wall time in seconds.
func replayJournal(o *outcome, p params, nd *netrun.Node, tr *tracer) float64 {
	st := nd.Status()
	j := nd.Journal()
	if p.tamperJournal != nil {
		p.tamperJournal(j)
	}
	sp := tr.begin("netrun.Replay", 0, 0)
	t0 := time.Now()
	res, err := netrun.Replay(j)
	d := time.Since(t0)
	tr.finish(sp)
	switch {
	case err != nil:
		o.violate("node %d journal does not replay: %v", st.Node, err)
	case int64(res.Rounds) != st.Round:
		o.violate("node %d journal replays %d rounds, the node committed %d", st.Node, res.Rounds, st.Round)
	case fmt.Sprintf("%016x", res.FinalFP) != st.FP:
		o.violate("node %d journal replays to fingerprint %016x, the node holds %s", st.Node, res.FinalFP, st.FP)
	}
	return d.Seconds()
}

// roundSample is one poll of a node's committed round.
type roundSample struct {
	at    time.Duration // since the sampler started
	round int64
}

// roundSampler polls a node's committed round every sampleEvery until
// stopped.
type roundSampler struct {
	done    chan struct{}
	wg      sync.WaitGroup
	samples []roundSample
}

func sampleRounds(nd *netrun.Node, tr *tracer) *roundSampler {
	s := &roundSampler{done: make(chan struct{}), samples: make([]roundSample, 0, 1024)}
	start := time.Now()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			sp := tr.begin("netrun.Node.Round", 0, 0)
			r := nd.Round()
			tr.finish(sp)
			s.samples = append(s.samples, roundSample{at: time.Since(start), round: r})
			select {
			case <-s.done:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the samples (the last one taken at stop).
func (s *roundSampler) stop() []roundSample {
	close(s.done)
	s.wg.Wait()
	return s.samples
}

// convergeMs returns the time at which the sampled node committed round
// target, interpolated between the two polls around it.
func convergeMs(samples []roundSample, target int64) float64 {
	for i, s := range samples {
		if s.round < target {
			continue
		}
		if i == 0 {
			return ms(s.at)
		}
		a := samples[i-1]
		frac := float64(target-a.round) / float64(s.round-a.round)
		return ms(a.at) + frac*ms(s.at-a.at)
	}
	return 0
}
