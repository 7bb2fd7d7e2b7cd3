// Package faults injects the failure model self-stabilization is built
// for: transient faults that corrupt register contents arbitrarily (but
// keep each variable inside its domain). A scenario is a sequence of fault
// bursts; after each burst the protocol must re-stabilize on its own —
// Theorem 1 promises it always does, and the experiments measure how fast.
//
// The injector is protocol-agnostic: sim.Corrupt draws corrupted values
// from the protocol's own per-vertex state domains via RandomState,
// exactly the paper's "arbitrary initial configuration" after each burst.
package faults

import (
	"errors"
	"fmt"
	"math/rand"

	"specstab/internal/scenario"
	"specstab/internal/sim"
)

// Burst is one fault event in a scenario.
type Burst struct {
	// AfterSteps: run this many steps before the burst fires (counted
	// from the previous burst's recovery measurement start).
	AfterSteps int
	// CorruptVertices: number of registers the burst corrupts.
	CorruptVertices int
}

// Scenario runs a fault-injection campaign.
type Scenario[S comparable] struct {
	// Protocol and NewDaemon build the system; a fresh daemon is used for
	// each recovery phase so stateful schedulers cannot leak across
	// bursts.
	Protocol  sim.Protocol[S]
	NewDaemon func() sim.Daemon[S]
	// Legit is the legitimacy predicate (required); Safe the safety
	// predicate (optional, defaults to Legit).
	Legit func(sim.Config[S]) bool
	Safe  func(sim.Config[S]) bool
	// HorizonSteps bounds each recovery phase's wait for re-entry; the
	// confirmation tail after re-entry may run past it.
	HorizonSteps int
	// Engine selects the execution backend and shard workers of the
	// recovery engines (zero value = automatic backend). Campaigns are
	// bitwise identical for every choice.
	Engine scenario.EngineSpec
}

// Run starts from initial, lets the system stabilize once, then applies
// each burst in turn, measuring every recovery. All randomness (burst
// targets, corrupted values, daemon choices) derives from seed.
//
// Each report counts from the burst: FirstLegitStep and FirstLegitMoves
// measure re-entry into the legitimacy set (−1 steps when it was not
// re-entered within HorizonSteps), Violations counts the configurations
// violating the safety predicate during recovery (the window
// self-stabilization cannot protect), and ClosureBroken reports a
// violation after re-entry, which must never happen.
func (s Scenario[S]) Run(initial sim.Config[S], bursts []Burst, seed int64) ([]sim.RunReport, error) {
	if s.Protocol == nil || s.NewDaemon == nil || s.Legit == nil {
		return nil, errors.New("faults: Protocol, NewDaemon and Legit are required")
	}
	rng := rand.New(rand.NewSource(seed))

	cfg := initial.Clone()
	// Initial stabilization (not reported: it is the E2/E3 measurement).
	var err error
	cfg, _, err = s.recover(cfg, rng)
	if err != nil {
		return nil, err
	}

	recoveries := make([]sim.RunReport, 0, len(bursts))
	for i, b := range bursts {
		// Quiet period before the burst.
		e, err := scenario.NewEngine(s.Engine, s.Protocol, s.NewDaemon(), cfg, rng.Int63())
		if err != nil {
			return nil, err
		}
		if _, err := e.Run(b.AfterSteps, nil); err != nil {
			return nil, err
		}
		cfg = e.Snapshot()

		// The burst.
		cfg = sim.Corrupt(s.Protocol, cfg, b.CorruptVertices, rng)

		// Recovery.
		next, rec, err := s.recover(cfg, rng)
		if err != nil {
			return nil, fmt.Errorf("faults: burst %d: %w", i, err)
		}
		cfg = next
		recoveries = append(recoveries, rec)
	}
	return recoveries, nil
}

// recover runs one recovery phase and scores it: a fresh engine from cfg,
// measured until confirmTail steps past re-entry into the legitimacy set
// (or HorizonSteps without re-entry). It returns the configuration the
// phase ended in.
func (s Scenario[S]) recover(cfg sim.Config[S], rng *rand.Rand) (sim.Config[S], sim.RunReport, error) {
	safe := s.Safe
	if safe == nil {
		safe = s.Legit
	}
	e, err := scenario.NewEngine(s.Engine, s.Protocol, s.NewDaemon(), cfg, rng.Int63())
	if err != nil {
		return nil, sim.RunReport{}, err
	}
	rep, err := sim.MeasureConvergence(e, s.HorizonSteps, confirmTail, safe, s.Legit)
	if err != nil {
		return nil, rep, err
	}
	return e.Snapshot(), rep, nil
}

// confirmTail is how many steps past re-entry each recovery keeps
// asserting safety (closure confirmation).
const confirmTail = 32
