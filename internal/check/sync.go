package check

import (
	"errors"
	"fmt"

	"specstab/internal/daemon"
	"specstab/internal/sim"
)

// SyncOptions configures an exhaustive synchronous worst-case measurement.
type SyncOptions[S comparable] struct {
	// Domain returns vertex v's full state domain. Required.
	Domain func(v int) []S
	// Safe is the safety predicate whose last violation defines the
	// stabilization time. Required.
	Safe func(sim.Config[S]) bool
	// Legit (optional) additionally records the worst first-entry time
	// into the legitimacy set.
	Legit func(sim.Config[S]) bool
	// Horizon is the synchronous run length per configuration. Required;
	// pick it from the protocol's proven synchronous bounds plus slack.
	Horizon int
	// MaxConfigs bounds the enumeration (default 2,000,000).
	MaxConfigs int
}

// SyncReport is the outcome of SyncWorst.
type SyncReport[S comparable] struct {
	// Configs is the number of initial configurations enumerated.
	Configs int
	// WorstSteps is the exact worst-case synchronous stabilization time
	// (in steps) over every initial configuration; WorstConfig attains it.
	WorstSteps  int
	WorstConfig sim.Config[S]
	// WorstLegitEntry is the worst first-entry step into Legit (0 when
	// Legit is nil).
	WorstLegitEntry int
}

// SyncWorst runs the deterministic synchronous execution from every
// configuration of the full state space and returns the exact worst-case
// stabilization time. The synchronous daemon admits exactly one execution
// per initial configuration, so — unlike the ud case — a plain sweep is a
// complete proof search. This is how E8 certifies Theorem 2 exactly on
// small instances.
func SyncWorst[S comparable](p sim.Protocol[S], opt SyncOptions[S]) (SyncReport[S], error) {
	var rep SyncReport[S]
	if opt.Domain == nil || opt.Safe == nil {
		return rep, errors.New("check: Domain and Safe are required")
	}
	if opt.Horizon <= 0 {
		return rep, errors.New("check: positive Horizon required")
	}
	maxConfigs := opt.MaxConfigs
	if maxConfigs == 0 {
		maxConfigs = defaultMaxConfigs
	}
	n := p.N()
	domains := make([][]S, n)
	total := 1
	for v := 0; v < n; v++ {
		domains[v] = opt.Domain(v)
		if len(domains[v]) == 0 {
			return rep, fmt.Errorf("check: empty domain for vertex %d", v)
		}
		if total > maxConfigs/len(domains[v]) {
			return rep, fmt.Errorf("%w: more than %d configurations", ErrTooLarge, maxConfigs)
		}
		total *= len(domains[v])
	}

	sd := daemon.NewSynchronous[S]()
	idx := make([]int, n)
	cfg := make(sim.Config[S], n)
	for v := 0; v < n; v++ {
		cfg[v] = domains[v][0]
	}
	for {
		rep.Configs++
		e, err := sim.NewEngine(p, sd, cfg, 1)
		if err != nil {
			return rep, err
		}
		run, err := sim.MeasureConvergence(e, opt.Horizon, -1, opt.Safe, opt.Legit)
		if err != nil {
			return rep, err
		}
		if run.ConvergenceSteps > rep.WorstSteps {
			rep.WorstSteps = run.ConvergenceSteps
			rep.WorstConfig = cfg.Clone()
		}
		if opt.Legit != nil && run.FirstLegitStep > rep.WorstLegitEntry {
			rep.WorstLegitEntry = run.FirstLegitStep
		}

		v := 0
		for v < n {
			idx[v]++
			if idx[v] < len(domains[v]) {
				cfg[v] = domains[v][idx[v]]
				break
			}
			idx[v] = 0
			cfg[v] = domains[v][0]
			v++
		}
		if v == n {
			break
		}
	}
	return rep, nil
}
