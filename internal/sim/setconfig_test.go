package sim_test

// Engine.SetConfig is the live fault-injection hook (internal/service
// corrupts registers mid-execution through it). These tests pin its
// contract: the injected configuration becomes the live one exactly, the
// maintained enabled set matches a from-scratch recomputation, and the
// continuation of the execution is bitwise identical across backends and
// worker counts — SetConfig must not introduce any representation- or
// timing-dependent divergence.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/sim"
)

// setConfigTrace runs: steps₁ transitions, inject cfg, steps₂ transitions,
// and returns the full recorded trace plus the final configuration.
func setConfigTrace[S comparable](t *testing.T, p sim.Protocol[S], opts sim.Options, initial, inject sim.Config[S], steps1, steps2 int) ([]stepRecord, sim.Config[S]) {
	t.Helper()
	e, err := sim.NewEngineWith(p, daemon.NewDistributed[S](0.5), initial, 7, opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := trace(t, e, steps1)
	if err := e.SetConfig(inject); err != nil {
		t.Fatal(err)
	}
	// The injected configuration must be live immediately…
	if !e.Current().Equal(inject) {
		t.Fatal("SetConfig: current configuration is not the injected one")
	}
	// …and the maintained enabled set must match a fresh recomputation.
	want := sim.Enabled(p, e.Current(), nil)
	if fmt.Sprint(e.Enabled()) != fmt.Sprint(want) {
		t.Fatalf("SetConfig: enabled set %v, want %v", e.Enabled(), want)
	}
	recs = append(recs, trace(t, e, steps2)...)
	return recs, e.Snapshot()
}

// TestSetConfigBackendsAgree: a mid-run injection must leave every
// backend/worker variant replaying the same continuation bit for bit.
func TestSetConfigBackendsAgree(t *testing.T) {
	t.Parallel()
	ring := graph.Ring(9)
	p := core.MustNew(ring)
	rng := rand.New(rand.NewSource(3))
	initial := sim.RandomConfig[int](p, rng)
	inject := sim.Corrupt[int](p, initial, 5, rng)

	ref, refFinal := setConfigTrace[int](t, p, sim.Options{Backend: sim.BackendGeneric, Workers: 1}, initial, inject, 25, 60)
	variants := []sim.Options{
		{Backend: sim.BackendGeneric, Workers: 4, ShardSize: 2},
		{Backend: sim.BackendFlat, Workers: 1},
		{Backend: sim.BackendFlat, Workers: runtime.GOMAXPROCS(0), ShardSize: 2},
	}
	for i, opts := range variants {
		got, final := setConfigTrace[int](t, p, opts, initial, inject, 25, 60)
		if len(got) != len(ref) {
			t.Fatalf("variant %d: execution lengths diverge: %d vs %d", i, len(got), len(ref))
		}
		for s := range ref {
			if fmt.Sprint(got[s].activated) != fmt.Sprint(ref[s].activated) ||
				fmt.Sprint(got[s].rules) != fmt.Sprint(ref[s].rules) ||
				got[s].rounds != ref[s].rounds {
				t.Fatalf("variant %d step %d diverges after SetConfig", i, s+1)
			}
		}
		if !final.Equal(refFinal) {
			t.Fatalf("variant %d: final configurations diverge", i)
		}
	}
}

// TestSetConfigMatchesFreshEngine: after injection, the engine's
// *synchronous* continuation (sd is deterministic, so daemon rng state
// cannot differ) must coincide step for step with a brand-new engine
// started from the injected configuration.
func TestSetConfigMatchesFreshEngine(t *testing.T) {
	t.Parallel()
	p := dijkstra.MustNew(8, 8)
	rng := rand.New(rand.NewSource(5))
	initial := sim.RandomConfig[int](p, rng)
	inject := sim.Corrupt[int](p, initial, 8, rng)

	live := sim.MustEngine[int](p, daemon.NewSynchronous[int](), initial, 1)
	if _, err := live.Run(10, nil); err != nil {
		t.Fatal(err)
	}
	if err := live.SetConfig(inject); err != nil {
		t.Fatal(err)
	}
	fresh := sim.MustEngine[int](p, daemon.NewSynchronous[int](), inject, 1)
	for s := 0; s < 40; s++ {
		pl, errL := live.Step()
		pf, errF := fresh.Step()
		if errL != nil || errF != nil {
			t.Fatalf("step %d: errors %v / %v", s, errL, errF)
		}
		if pl != pf {
			t.Fatalf("step %d: progress diverges (%v vs %v)", s, pl, pf)
		}
		if !live.Current().Equal(fresh.Current()) {
			t.Fatalf("step %d: configurations diverge after SetConfig", s)
		}
		if !pl {
			break
		}
	}
}

// TestSetConfigRejectsWrongLength: validation must refuse mis-sized
// configurations and leave the engine untouched.
func TestSetConfigRejectsWrongLength(t *testing.T) {
	t.Parallel()
	p := dijkstra.MustNew(6, 6)
	e := sim.MustEngine[int](p, daemon.NewSynchronous[int](), make(sim.Config[int], 6), 1)
	before := e.Snapshot()
	if err := e.SetConfig(make(sim.Config[int], 5)); err == nil {
		t.Fatal("want error for mis-sized configuration")
	}
	if !e.Current().Equal(before) {
		t.Fatal("failed SetConfig must not modify the configuration")
	}
}
