package sim

// Convergence measurement: the empirical counterpart of the paper's
// conv_time. For one execution we record the last configuration index at
// which the problem's safety predicate is violated; the observed
// stabilization time of the run is that index plus one (in steps), together
// with the number of moves spent up to that point. The harness additionally
// tracks when the protocol first enters its legitimacy set (Γ₁ for unison)
// and asserts closure: once legitimate, safety must never break again —
// any counterexample would refute Theorem 1.
//
// RunReport.Observe holds the scoring rule; MeasureConvergence owns a run
// loop around it, and the scenario layer's convergence observer feeds it
// from the engine's step hook.

// RunReport is the outcome of MeasureConvergence for a single execution.
// A report being filled by Observe starts as
// RunReport{LastViolationStep: -1, FirstLegitStep: -1}.
type RunReport struct {
	// StepsExecuted and MovesExecuted cover the whole measured run.
	StepsExecuted int
	MovesExecuted int
	// Terminal is true when the run stopped because no vertex was enabled.
	Terminal bool

	// LastViolationStep is the largest configuration index (0 = initial
	// configuration, i = after i steps) at which safe() was false, or −1
	// when the whole run was safe.
	LastViolationStep int
	// ConvergenceSteps = LastViolationStep + 1: the observed stabilization
	// time of this execution in steps.
	ConvergenceSteps int
	// ConvergenceMoves is the number of moves executed up to and including
	// the step that produced the last violating configuration.
	ConvergenceMoves int
	// Violations counts the configurations at which safe() was false.
	Violations int

	// FirstLegitStep is the first configuration index in the legitimacy
	// set (−1 when legit is nil or never reached); FirstLegitMoves counts
	// moves spent strictly before it.
	FirstLegitStep  int
	FirstLegitMoves int

	// ClosureBroken is true when a safety violation was observed at or
	// after a legitimate configuration — empirically refuting closure.
	// It must stay false for every protocol in this repository.
	ClosureBroken bool
}

// Observe scores configuration index step, reached after moves moves:
// safe and legit are the predicates' verdicts on it. Once FirstLegitStep
// is set, legit is ignored, so callers may skip evaluating the
// legitimacy predicate from then on.
func (r *RunReport) Observe(step, moves int, safe, legit bool) {
	if legit && r.FirstLegitStep < 0 {
		r.FirstLegitStep = step
		r.FirstLegitMoves = moves
	}
	if !safe {
		r.Violations++
		r.LastViolationStep = step
		r.ConvergenceSteps = step + 1
		r.ConvergenceMoves = moves
		if r.FirstLegitStep >= 0 {
			r.ClosureBroken = true
		}
	}
}

// MeasureConvergence runs e and scores the execution against a safety
// predicate and an optional legitimacy predicate.
//
// With tail < 0 the run lasts horizon steps (or until a terminal
// configuration); the horizon must be chosen large enough that the
// protocol is guaranteed (or at least overwhelmingly expected) to have
// stabilized, and the per-protocol helpers in internal/core and friends
// pick horizons from the paper's own upper bounds. With tail ≥ 0 the run
// stops tail steps after the first legitimate configuration — past the
// horizon if need be — and at the horizon only while legitimacy has not
// been reached: closure makes the tail a confirmation, not a search.
func MeasureConvergence[S comparable](
	e *Engine[S],
	horizon, tail int,
	safe func(Config[S]) bool,
	legit func(Config[S]) bool,
) (RunReport, error) {
	rep := RunReport{LastViolationStep: -1, FirstLegitStep: -1}
	inspect := func(step int) {
		c := e.Current()
		rep.Observe(step, e.Moves(), safe(c), legit != nil && rep.FirstLegitStep < 0 && legit(c))
	}

	inspect(0)
	for step := 1; ; step++ {
		last := horizon
		if tail >= 0 && rep.FirstLegitStep >= 0 {
			last = rep.FirstLegitStep + tail
		}
		if step > last {
			break
		}
		progressed, err := e.Step()
		if err != nil {
			return rep, err
		}
		if !progressed {
			rep.Terminal = true
			break
		}
		inspect(step)
	}
	rep.StepsExecuted = e.Steps()
	rep.MovesExecuted = e.Moves()
	return rep, nil
}

// RunToFixpoint drives e until a terminal configuration or maxSteps,
// whichever comes first, and reports whether a fixpoint was reached.
// Silent protocols (BFS tree, matching) stabilize exactly at their
// fixpoint, so their convergence measurements use this helper.
func RunToFixpoint[S comparable](e *Engine[S], maxSteps int) (fixpoint bool, err error) {
	for i := 0; i < maxSteps; i++ {
		progressed, err := e.Step()
		if err != nil {
			return false, err
		}
		if !progressed {
			return true, nil
		}
	}
	return Terminal(e.p, e.cfg), nil
}
