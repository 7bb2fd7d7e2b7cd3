package core

import (
	"fmt"

	"specstab/internal/daemon"
	"specstab/internal/sim"
)

// Specification 1 (spec_ME) measurement helpers. A vertex executes its
// critical section when it is privileged in γ_i and activated during the
// action (γ_i, γ_{i+1}); safety demands at most one privileged vertex per
// configuration and liveness that every vertex executes its critical
// section infinitely often.

// MeasureSync runs SSME's (unique) synchronous execution from initial and
// reports the observed stabilization time in steps. The horizon runs far
// past the paper's 2n + diam unison bound plus a full service window, so a
// late safety violation cannot hide beyond it (after Γ₁ membership, closure
// makes violations impossible — ClosureBroken asserts that empirically).
func (p *Protocol) MeasureSync(initial sim.Config[int]) (sim.RunReport, error) {
	e, err := sim.NewEngine[int](p, daemon.NewSynchronous[int](), initial, 1)
	if err != nil {
		return sim.RunReport{}, err
	}
	horizon := p.ServiceWindow()
	return sim.MeasureConvergence(e, horizon, -1, p.SafeME, p.Legitimate)
}

// MeasureUnder runs one execution under an arbitrary daemon for the given
// horizon in steps and scores it against spec_ME safety and Γ₁.
func (p *Protocol) MeasureUnder(d sim.Daemon[int], initial sim.Config[int], seed int64, horizon int) (sim.RunReport, error) {
	e, err := sim.NewEngine[int](p, d, initial, seed)
	if err != nil {
		return sim.RunReport{}, err
	}
	return sim.MeasureConvergence(e, horizon, -1, p.SafeME, p.Legitimate)
}

// ServiceReport summarizes critical-section service over a measured window
// (the liveness half of spec_ME).
type ServiceReport struct {
	// WindowSteps is the number of steps observed.
	WindowSteps int
	// CSCount[v] is how many times v executed its critical section.
	CSCount []int
	// AllServed is true when every vertex executed its critical section at
	// least once during the window.
	AllServed bool
	// MaxGap is the largest observed inter-service gap (in steps) across
	// vertices, counting from the window start.
	MaxGap int
	// ConcurrentCS counts steps in which two privileged vertices were
	// activated together — actual simultaneous critical sections, the
	// event safety forbids after stabilization.
	ConcurrentCS int
}

// MeasureService drives e for window steps and records critical-section
// executions: v executes its CS at step i+1 exactly when v was privileged
// in γ_i and the daemon activated it. Call it on an engine whose current
// configuration is already legitimate to measure steady-state service, or
// from an arbitrary configuration to watch service begin after
// stabilization.
func (p *Protocol) MeasureService(e *sim.Engine[int], window int) (ServiceReport, error) {
	n := p.g.N()
	rep := ServiceReport{
		WindowSteps: window,
		CSCount:     make([]int, n),
	}
	lastServed := make([]int, n)
	wasPrivileged := make([]bool, n)

	// One pipeline registration for the whole window (the loop variables
	// are captured by reference); the hook composes with any observers the
	// caller has already attached to e.
	var step, servedThisStep int
	id := e.AddHook(func(info sim.StepInfo) {
		for _, v := range info.Activated {
			if wasPrivileged[v] {
				rep.CSCount[v]++
				servedThisStep++
				if gap := step - lastServed[v]; gap > rep.MaxGap {
					rep.MaxGap = gap
				}
				lastServed[v] = step
			}
		}
	})
	defer e.RemoveHook(id)
	for step = 1; step <= window; step++ {
		cur := e.Current()
		for v := 0; v < n; v++ {
			wasPrivileged[v] = p.Privileged(cur, v)
		}
		servedThisStep = 0
		progressed, err := e.Step()
		if err != nil {
			return rep, err
		}
		if !progressed {
			return rep, fmt.Errorf("core: SSME reached a terminal configuration (step %d) — impossible for a live protocol", step)
		}
		if servedThisStep > 1 {
			rep.ConcurrentCS++
		}
	}
	rep.AllServed = true
	for v := 0; v < n; v++ {
		if rep.CSCount[v] == 0 {
			rep.AllServed = false
		}
		if gap := window - lastServed[v]; gap > rep.MaxGap {
			rep.MaxGap = gap
		}
	}
	return rep, nil
}
