package dijkstra

import (
	"math/rand"
	"testing"

	"specstab/internal/daemon"
	"specstab/internal/sim"
)

func TestNewValidation(t *testing.T) {
	t.Parallel()
	if _, err := New(2, 5); err == nil {
		t.Error("want error for n < 3")
	}
	if _, err := New(5, 4); err == nil {
		t.Error("want error for K < n")
	}
	if _, err := NewUnchecked(5, 3); err != nil {
		t.Errorf("NewUnchecked(5,3): %v", err)
	}
	if _, err := NewUnchecked(5, 1); err == nil {
		t.Error("want error for K < 2")
	}
}

func TestAtLeastOneToken(t *testing.T) {
	t.Parallel()
	p := MustNew(7, 7)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		c := sim.RandomConfig[int](p, rng)
		if p.TokenCount(c) < 1 {
			t.Fatalf("configuration %v has no token", c)
		}
	}
}

func TestTokenCountNeverIncreases(t *testing.T) {
	t.Parallel()
	p := MustNew(6, 6)
	rng := rand.New(rand.NewSource(2))
	daemons := []sim.Daemon[int]{
		daemon.NewSynchronous[int](),
		daemon.NewRandomCentral[int](),
		daemon.NewDistributed[int](0.5),
	}
	for _, d := range daemons {
		e := sim.MustEngine[int](p, d, sim.RandomConfig[int](p, rng), 3)
		prev := p.TokenCount(e.Current())
		for i := 0; i < 200; i++ {
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
			cur := p.TokenCount(e.Current())
			if cur > prev {
				t.Fatalf("under %s token count rose %d → %d at step %d", d.Name(), prev, cur, i+1)
			}
			prev = cur
		}
	}
}

func TestLegitimateIsClosedAndLive(t *testing.T) {
	t.Parallel()
	p := MustNew(5, 5)
	// Legitimate start: all equal — only the bottom is privileged.
	c := sim.Config[int]{3, 3, 3, 3, 3}
	if !p.Legitimate(c) {
		t.Fatal("uniform configuration should be legitimate")
	}
	e := sim.MustEngine[int](p, daemon.NewRandomCentral[int](), c, 9)
	served := make([]int, p.N())
	for i := 0; i < 500; i++ {
		cur := e.Current()
		if !p.Legitimate(cur) {
			t.Fatalf("left the legitimate set at step %d: %v", i, cur)
		}
		for v := 0; v < p.N(); v++ {
			if p.Privileged(cur, v) {
				served[v]++
			}
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for v, s := range served {
		if s == 0 {
			t.Errorf("vertex %d never privileged in 500 legitimate steps", v)
		}
	}
}

func TestConvergenceUnderManyDaemons(t *testing.T) {
	t.Parallel()
	for _, n := range []int{4, 6, 9} {
		p := MustNew(n, n)
		daemons := []sim.Daemon[int]{
			daemon.NewSynchronous[int](),
			daemon.NewRandomCentral[int](),
			daemon.NewRoundRobin[int](n),
			daemon.NewDistributed[int](0.3),
			daemon.NewGreedyCentral[int](p, p.TokenPotential),
			daemon.NewLookahead[int](p, p.TokenPotential, 4),
		}
		rng := rand.New(rand.NewSource(4))
		for _, d := range daemons {
			for trial := 0; trial < 5; trial++ {
				e := sim.MustEngine[int](p, d, sim.RandomConfig[int](p, rng), int64(trial))
				rep, err := sim.MeasureConvergence(e, p.UnfairHorizonMoves(), -1, p.SafeME, p.Legitimate)
				if err != nil {
					t.Fatalf("n=%d %s: %v", n, d.Name(), err)
				}
				if rep.FirstLegitStep < 0 {
					t.Errorf("n=%d %s trial %d: never converged to a single token", n, d.Name(), trial)
				}
				if rep.ClosureBroken {
					t.Errorf("n=%d %s trial %d: closure broken", n, d.Name(), trial)
				}
			}
		}
	}
}

func TestSynchronousStabilizationLinear(t *testing.T) {
	t.Parallel()
	// Section 3: Dijkstra's protocol stabilizes in Θ(n) steps under the
	// synchronous daemon (the paper quotes "n steps"; the measured worst
	// over random configurations is 2n−3, the bottom counting through a
	// colliding value before its final wave — still Θ(n)).
	for _, n := range []int{4, 6, 8, 11} {
		p := MustNew(n, n)
		rng := rand.New(rand.NewSource(5))
		worst := 0
		for trial := 0; trial < 100; trial++ {
			e := sim.MustEngine[int](p, daemon.NewSynchronous[int](), sim.RandomConfig[int](p, rng), 1)
			rep, err := sim.MeasureConvergence(e, p.SyncHorizon(), -1, p.SafeME, p.Legitimate)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ConvergenceSteps > worst {
				worst = rep.ConvergenceSteps
			}
		}
		if worst > 2*n {
			t.Errorf("n=%d: synchronous stabilization took %d steps > 2n", n, worst)
		}
	}
}

func TestWorstConfigSyncExactlyN(t *testing.T) {
	t.Parallel()
	// From the alternating-runs worst configuration the synchronous
	// execution stabilizes in exactly n steps — the figure Section 3
	// quotes for Dijkstra under sd.
	for _, n := range []int{8, 12, 16} {
		p := MustNew(n, n)
		e := sim.MustEngine[int](p, daemon.NewSynchronous[int](), p.WorstConfig(), 1)
		rep, err := sim.MeasureConvergence(e, p.SyncHorizon(), -1, p.SafeME, p.Legitimate)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ConvergenceSteps != n {
			t.Errorf("n=%d: worst-config synchronous stabilization = %d steps, want n", n, rep.ConvergenceSteps)
		}
	}
}

func TestMoveComplexityQuadraticWorstCase(t *testing.T) {
	t.Parallel()
	// Θ(n²) under ud: the alternating-runs configuration drained
	// rightmost-token-first costs exactly (n/2 − 1)² moves — every run
	// boundary travels to the top of the ring before the next is released.
	measure := func(n int) int {
		p := MustNew(n, n)
		e := sim.MustEngine[int](p, daemon.NewMaxIDCentral[int](), p.WorstConfig(), 1)
		rep, err := sim.MeasureConvergence(e, p.UnfairHorizonMoves(), -1, p.SafeME, p.Legitimate)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FirstLegitStep < 0 {
			t.Fatalf("n=%d: did not converge", n)
		}
		return rep.FirstLegitMoves
	}
	for _, n := range []int{8, 16, 32} {
		want := (n/2 - 1) * (n/2 - 1)
		if got := measure(n); got != want {
			t.Errorf("n=%d: worst-case moves = %d, want (n/2−1)² = %d", n, got, want)
		}
	}
}

func TestRuleNames(t *testing.T) {
	t.Parallel()
	p := MustNew(3, 3)
	if p.RuleName(RuleBottom) != "bottom" || p.RuleName(RulePass) != "pass" {
		t.Error("unexpected rule names")
	}
	if p.RuleName(99) == "" {
		t.Error("unknown rules should still render")
	}
}
