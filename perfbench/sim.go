package main

// sim-ssme-sync: the in-process engine and its shard pool. SSME runs on a
// ring large enough for the pool to engage (n > sim.DefaultShardSize), flat
// backend, synchronous daemon, default workers, from seeded random
// configurations, for exactly core.SyncBound(g) = ⌈diam/2⌉ steps per trial —
// so every trial checks Theorem 2. Set-up is dominated by the all-pairs BFS
// behind graph.Diameter, which core.New calls first.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/graph"
	"specstab/internal/sim"
)

// simTrial is one ⌈diam/2⌉-step execution.
type simTrial struct {
	steps   []time.Duration
	total   time.Duration
	moves   int
	finalFP uint64
	safe    bool
}

func newSimEngine(prot *core.Protocol, init sim.Config[int], seed int64, workers int) (*sim.Engine[int], error) {
	return sim.NewEngineWith[int](prot, daemon.NewSynchronous[int](), init, seed,
		sim.Options{Backend: sim.BackendFlat, Workers: workers})
}

// runTrial steps eng exactly bound times, timing each Step.
func runTrial(eng *sim.Engine[int], prot *core.Protocol, bound int, tr *tracer) (simTrial, error) {
	defer eng.Close()
	st := simTrial{steps: make([]time.Duration, 0, bound)}
	root := tr.begin("sim.trial", 0, 0)
	defer tr.finish(root)
	for i := 0; i < bound; i++ {
		sp := tr.begin("sim.Engine.Step", root.id, 0)
		t0 := time.Now()
		ok, err := eng.Step()
		d := time.Since(t0)
		tr.finish(sp)
		if err != nil {
			return st, err
		}
		if !ok {
			return st, fmt.Errorf("engine terminal at step %d of %d", i, bound)
		}
		st.steps = append(st.steps, d)
		st.total += d
	}
	st.moves = eng.Moves()
	st.finalFP = sim.FingerprintConfig(eng.Current())
	st.safe = prot.SafeME(eng.Current())
	return st, nil
}

// stepBlock is the number of consecutive steps one latency sample averages.
// A single step waits at the shard pool's barrier for every worker, so on a
// host with as many CPUs as workers one preempted worker doubles that step:
// the tail of single steps measures the host's scheduler. A block of 32
// steps (about 10 ms) dilutes one preemption and still shows slow stretches.
const stepBlock = 32

// blockMeansMs returns the mean step time of each full block of stepBlock
// steps, in milliseconds.
func blockMeansMs(steps []time.Duration) []float64 {
	out := make([]float64, 0, len(steps)/stepBlock)
	for i := stepBlock; i <= len(steps); i += stepBlock {
		var sum time.Duration
		for _, d := range steps[i-stepBlock : i] {
			sum += d
		}
		out = append(out, ms(sum)/stepBlock)
	}
	return out
}

func runSim(p params, tr *tracer) (*outcome, error) {
	o := &outcome{named: map[string]float64{}, layer: map[string]float64{}}
	var (
		prot    *core.Protocol
		init0   sim.Config[int]
		eng     *sim.Engine[int]
		bound   int
		diamS   []float64
		err     error
		trialNo int64
	)
	// Set-up: ring, SSME (whose clock parameters need the diameter), a
	// random start and the engine — several times; the last one is kept.
	for i := 0; i < p.simSetups; i++ {
		if eng != nil {
			eng.Close()
			prot, eng = nil, nil
			runtime.GC()
		}
		t0 := time.Now()
		g := graph.Ring(p.simN)
		sp := tr.begin("core.New", 0, 0)
		t1 := time.Now()
		prot, err = core.New(g)
		diamS = append(diamS, time.Since(t1).Seconds())
		tr.finish(sp)
		if err != nil {
			return nil, err
		}
		bound = core.SyncBound(g)
		init0 = sim.RandomConfig[int](prot, rand.New(rand.NewSource(p.seed)))
		if eng, err = newSimEngine(prot, init0, p.seed, 0); err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
	}

	var trials []simTrial
	for len(trials) == 0 || o.elapsed < p.seconds {
		if len(trials) > 0 {
			trialNo++
			init := sim.RandomConfig[int](prot, rand.New(rand.NewSource(p.seed*1_000_003+trialNo)))
			if eng, err = newSimEngine(prot, init, p.seed, 0); err != nil {
				return nil, err
			}
		}
		st, err := runTrial(eng, prot, bound, tr)
		o.attempted += int64(bound)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", len(trials), err)
		}
		o.markHeap()
		if !st.safe {
			o.violate("trial %d: SafeME fails at step ⌈diam/2⌉ = %d (Theorem 2)", len(trials), bound)
		}
		o.add(chunk{ops: int64(len(st.steps)), dur: st.total, latMs: blockMeansMs(st.steps)})
		trials = append(trials, st)
	}

	// The same first trial on one worker must be the same execution. It
	// is not traced, so every Step span belongs to a default-workers trial.
	one, err := newSimEngine(prot, init0, p.seed, 1)
	if err != nil {
		return nil, err
	}
	seq, err := runTrial(one, prot, bound, nil)
	if err != nil {
		return nil, fmt.Errorf("Workers: 1 trial: %w", err)
	}
	if seq.finalFP != trials[0].finalFP || seq.moves != trials[0].moves {
		o.violate("Workers: 1 ends at fingerprint %016x after %d moves, default workers at %016x after %d",
			seq.finalFP, seq.moves, trials[0].finalFP, trials[0].moves)
	}

	o.named["steps_per_s"] = o.summarize().rate
	if tr == nil {
		return o, nil
	}
	var stepUs []float64
	for _, d := range tr.durations("sim.Engine.Step") {
		stepUs = append(stepUs, us(d))
	}
	sort.Float64s(stepUs)
	moves := 0
	for _, st := range trials {
		moves += st.moves
	}
	l := o.layer
	l["sim.step_us_p50"] = percentile(stepUs, 0.5)
	l["sim.step_us_p99"] = percentile(stepUs, 0.99)
	l["sim.moves_per_step"] = float64(moves) / float64(max(1, o.ops))
	l["sim.pool.speedup"] = seq.total.Seconds() / trials[0].total.Seconds()
	l["graph.diameter_s"] = median(diamS)
	return o, nil
}
