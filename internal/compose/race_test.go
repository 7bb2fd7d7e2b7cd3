package compose_test

// Regression tests for the former concurrency hazard: Product used to
// share projection scratch buffers across guard evaluations, so
// compositions could not be evaluated from concurrent goroutines or run
// under the engine's shard-parallel step. The buffers are pooled and the
// interning table copy-on-write now; these tests drive a one-goroutine-
// per-vertex fan-out and the shard pool, and are meant to run under the
// race detector (CI does).

import (
	"math/rand"
	"sync"
	"testing"

	"specstab/internal/bfstree"
	"specstab/internal/compose"
	"specstab/internal/daemon"
	"specstab/internal/graph"
	"specstab/internal/sim"
	"specstab/internal/unison"
)

// newRand returns a seeded generator for test configurations.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// newTestProduct builds unison × bfstree on a grid — both components
// flat and rule-bounded, so the product is eager-interned and flat.
func newTestProduct(t *testing.T) *compose.Product[int, int] {
	t.Helper()
	g := graph.Grid(3, 3)
	uni, err := unison.New(g, unison.MinimalParams(g))
	if err != nil {
		t.Fatal(err)
	}
	return compose.MustNew[int, int](uni, bfstree.MustNew(g, 0))
}

// TestProductUnderRoundNetwork evaluates a composition from one goroutine
// per vertex against the frozen round configuration — EnabledRule/Apply
// race on any shared scratch — and checks every round against the
// sequential engine under the synchronous daemon.
func TestProductUnderRoundNetwork(t *testing.T) {
	t.Parallel()
	prod := newTestProduct(t)
	cfg := make(sim.Config[compose.Pair[int, int]], prod.N())
	for v := range cfg {
		cfg[v] = compose.Pair[int, int]{First: -v % 3, Second: v % 4}
	}
	e := sim.MustEngine[compose.Pair[int, int]](prod, daemon.NewSynchronous[compose.Pair[int, int]](), cfg, 1)
	for round := 0; round < 30; round++ {
		next := cfg.Clone()
		var wg sync.WaitGroup
		for v := range cfg {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rule, ok := prod.EnabledRule(cfg, v); ok {
					next[v] = prod.Apply(cfg, v, rule)
				}
			}()
		}
		wg.Wait()
		progressed, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			break
		}
		if !next.Equal(e.Current()) {
			t.Fatalf("round %d: concurrent evaluation and sequential synchronous engine diverge", round)
		}
		cfg = next
	}
}

// TestProductSharedAcrossEngines drives several engines over ONE Product
// value concurrently — the pooled projections and the copy-on-write rule
// table must keep them independent.
func TestProductSharedAcrossEngines(t *testing.T) {
	t.Parallel()
	prod := newTestProduct(t)
	var wg sync.WaitGroup
	for seed := int64(1); seed <= 4; seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			e, err := sim.NewEngineWith[compose.Pair[int, int]](prod,
				daemon.NewDistributed[compose.Pair[int, int]](0.5),
				sim.RandomConfig[compose.Pair[int, int]](prod, newRand(seed)), seed,
				sim.Options{Workers: 4, ShardSize: 2})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := e.Run(60, nil); err != nil {
				t.Error(err)
			}
		}(seed)
	}
	wg.Wait()
}

// TestProductParallelStepMatchesSequential runs the shard-parallel flat
// engine against the sequential generic engine on a composition under the
// synchronous daemon — the combination the satellite unlocks.
func TestProductParallelStepMatchesSequential(t *testing.T) {
	t.Parallel()
	prod := newTestProduct(t)
	initial := sim.RandomConfig[compose.Pair[int, int]](prod, newRand(7))

	seq, err := sim.NewEngineWith[compose.Pair[int, int]](prod,
		daemon.NewSynchronous[compose.Pair[int, int]](), initial, 7,
		sim.Options{Backend: sim.BackendGeneric, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := sim.NewEngineWith[compose.Pair[int, int]](prod,
		daemon.NewSynchronous[compose.Pair[int, int]](), initial, 7,
		sim.Options{Backend: sim.BackendFlat, Workers: 4, ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if par.Backend() != sim.BackendFlat {
		t.Fatal("product of flat components must run on the flat backend")
	}
	for i := 0; i < 40; i++ {
		ps, err := seq.Step()
		if err != nil {
			t.Fatal(err)
		}
		pp, err := par.Step()
		if err != nil {
			t.Fatal(err)
		}
		if ps != pp {
			t.Fatalf("step %d: progress diverges", i)
		}
		if !seq.Current().Equal(par.Current()) {
			t.Fatalf("step %d: configurations diverge", i)
		}
		if !ps {
			break
		}
	}
}
