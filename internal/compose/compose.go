// Package compose implements the composition tool the paper's conclusion
// sketches as future work: running two guarded-command protocols with
// disjoint variables side by side on the same graph (collateral product).
//
// When a vertex is activated it fires the enabled rule of each component
// (one, the other, or both). Each component's projection of a composite
// execution is a legal execution of that component, so:
//
//   - under the synchronous daemon both components stabilize independently
//     and conv_time(A×B, sd) ≤ max(conv_time(A, sd), conv_time(B, sd)) —
//     speculative stabilization composes with the max of the weak-daemon
//     bounds;
//   - under weakly fair daemons (round-robin, distributed-p, sd) the same
//     holds in the respective measures.
//
// Honesty note: under the *unfair* distributed daemon the product does NOT
// automatically self-stabilize — an unfair scheduler can forever activate
// only vertices where a never-terminating component (e.g. unison) is
// enabled, starving the other component. This is the classical fair-
// composition caveat; the package documents it and the tests exhibit both
// the composing cases and the caveat's boundary.
package compose

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"specstab/internal/sim"
)

// Pair is the product state: component A's state and component B's state.
type Pair[A, B comparable] struct {
	First  A
	Second B
}

// Product runs two protocols with disjoint state on the same vertex set.
// A Product is safe for concurrent use: guard evaluation draws its
// projection scratch from a pool and the rule-pair interning table is an
// immutable snapshot behind an atomic pointer, so guards may be evaluated
// from one goroutine per vertex and compositions run under the engine's
// shard-parallel step (the race tests exercise exactly that).
//
// Product rules are interned pairs of component rules, so products nest:
// a Product is itself a sim.Protocol and can be composed again (see the
// three-way composition test). When both components declare their rule
// bounds (sim.RuleBounded — every protocol of this repository does), the
// whole pair table is pre-interned at construction in lexicographic
// order, which makes rule numbering deterministic regardless of
// evaluation order or concurrency; unbounded components fall back to
// copy-on-write interning in encounter order.
type Product[A, B comparable] struct {
	a sim.Protocol[A]
	b sim.Protocol[B]

	// Projection scratch: *projPair[A, B], pooled so that concurrent
	// guard evaluations never share buffers.
	proj sync.Pool

	// Rule interning: product rule r (≥ 1) stands for component pair
	// tab.pairs[r−1]; tab.index inverts it. The table is an immutable
	// snapshot — writers clone it under mu and swap the pointer, readers
	// are lock-free. eager marks a fully pre-interned table.
	tab   atomic.Pointer[ruleTable]
	mu    sync.Mutex
	eager bool

	// dense is the eager table as a flat array — dense[ra*(bb+1)+rb] —
	// so the batch kernels translate rule pairs without a map lookup.
	dense   []sim.Rule
	denseBB sim.Rule
}

// ruleTable is one immutable interning snapshot.
type ruleTable struct {
	index map[[2]sim.Rule]sim.Rule
	pairs [][2]sim.Rule
}

// projPair is one projection scratch: both component views of a product
// configuration.
type projPair[A, B comparable] struct {
	a sim.Config[A]
	b sim.Config[B]
}

// internRule returns the dense product rule for the component pair,
// extending the table (copy-on-write) when the pair is new.
func (p *Product[A, B]) internRule(ra, rb sim.Rule) sim.Rule {
	key := [2]sim.Rule{ra, rb}
	if r, ok := p.tab.Load().index[key]; ok {
		return r
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.tab.Load()
	if r, ok := old.index[key]; ok { // raced with another writer
		return r
	}
	next := &ruleTable{
		index: make(map[[2]sim.Rule]sim.Rule, len(old.index)+1),
		pairs: append(append([][2]sim.Rule(nil), old.pairs...), key),
	}
	//speclint:ordered -- map-to-map copy: per-key writes are independent of visit order
	for k, v := range old.index {
		next.index[k] = v
	}
	r := sim.Rule(len(next.pairs))
	next.index[key] = r
	p.tab.Store(next)
	return r
}

// DecodeRule splits a product rule into its component rules (either may be
// sim.NoRule when only one component fires).
func (p *Product[A, B]) DecodeRule(r sim.Rule) (ra, rb sim.Rule) {
	tab := p.tab.Load()
	if r < 1 || int(r) > len(tab.pairs) {
		return sim.NoRule, sim.NoRule
	}
	pair := tab.pairs[r-1]
	return pair[0], pair[1]
}

// New builds the product; the components must agree on the vertex count.
func New[A, B comparable](a sim.Protocol[A], b sim.Protocol[B]) (*Product[A, B], error) {
	if a.N() != b.N() {
		return nil, fmt.Errorf("compose: component sizes differ (%d vs %d)", a.N(), b.N())
	}
	p := &Product[A, B]{a: a, b: b}
	p.proj.New = func() any { return &projPair[A, B]{} }
	p.tab.Store(&ruleTable{index: make(map[[2]sim.Rule]sim.Rule)})
	if ba, okA := sim.MaxRuleOf(a); okA {
		if bb, okB := sim.MaxRuleOf(b); okB {
			// Pre-intern every pair in lexicographic order: product rule
			// numbering becomes a pure function of the component bounds.
			p.dense = make([]sim.Rule, (int(ba)+1)*(int(bb)+1))
			p.denseBB = bb
			for ra := sim.Rule(0); ra <= ba; ra++ {
				for rb := sim.Rule(0); rb <= bb; rb++ {
					if ra == 0 && rb == 0 {
						continue
					}
					p.dense[int(ra)*(int(bb)+1)+int(rb)] = p.internRule(ra, rb)
				}
			}
			p.eager = true
		}
	}
	return p, nil
}

// internFast is internRule for pairs within the eager bounds: a flat
// array lookup, no map access. Out-of-bounds pairs (a component exceeding
// its declared MaxRule) fall back to the interning table.
func (p *Product[A, B]) internFast(ra, rb sim.Rule) sim.Rule {
	if p.dense != nil && rb <= p.denseBB {
		if idx := int(ra)*(int(p.denseBB)+1) + int(rb); idx < len(p.dense) {
			return p.dense[idx]
		}
	}
	return p.internRule(ra, rb)
}

// MustNew is New that panics on error.
func MustNew[A, B comparable](a sim.Protocol[A], b sim.Protocol[B]) *Product[A, B] {
	p, err := New(a, b)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements sim.Protocol.
func (p *Product[A, B]) Name() string { return p.a.Name() + " × " + p.b.Name() }

// N implements sim.Protocol.
func (p *Product[A, B]) N() int { return p.a.N() }

// First returns component A's protocol; Second component B's.
func (p *Product[A, B]) First() sim.Protocol[A]  { return p.a }
func (p *Product[A, B]) Second() sim.Protocol[B] { return p.b }

// MaxRule implements sim.RuleBounded: with rule-bounded components the
// pre-interned pair table is the complete rule space; otherwise the bound
// is unknown (0).
func (p *Product[A, B]) MaxRule() sim.Rule {
	if !p.eager {
		return sim.NoRule
	}
	return sim.Rule(len(p.tab.Load().pairs))
}

// ProjectA extracts component A's configuration.
func (p *Product[A, B]) ProjectA(c sim.Config[Pair[A, B]]) sim.Config[A] {
	out := make(sim.Config[A], len(c))
	for v := range c {
		out[v] = c[v].First
	}
	return out
}

// ProjectB extracts component B's configuration.
func (p *Product[A, B]) ProjectB(c sim.Config[Pair[A, B]]) sim.Config[B] {
	out := make(sim.Config[B], len(c))
	for v := range c {
		out[v] = c[v].Second
	}
	return out
}

// Combine zips two component configurations into a product configuration.
func Combine[A, B comparable](ca sim.Config[A], cb sim.Config[B]) sim.Config[Pair[A, B]] {
	out := make(sim.Config[Pair[A, B]], len(ca))
	for v := range ca {
		out[v] = Pair[A, B]{First: ca[v], Second: cb[v]}
	}
	return out
}

// projections fills a pooled scratch pair with both component views; the
// caller must release it after use and must not retain the views.
func (p *Product[A, B]) projections(c sim.Config[Pair[A, B]]) *projPair[A, B] {
	pp := p.proj.Get().(*projPair[A, B])
	if cap(pp.a) < len(c) {
		pp.a = make(sim.Config[A], len(c))
		pp.b = make(sim.Config[B], len(c))
	}
	pp.a, pp.b = pp.a[:len(c)], pp.b[:len(c)]
	for v := range c {
		pp.a[v] = c[v].First
		pp.b[v] = c[v].Second
	}
	return pp
}

// release returns a projection scratch to the pool.
func (p *Product[A, B]) release(pp *projPair[A, B]) { p.proj.Put(pp) }

// EnabledRule implements sim.Protocol: a vertex is enabled when either
// component is, and firing executes every enabled component rule.
func (p *Product[A, B]) EnabledRule(c sim.Config[Pair[A, B]], v int) (sim.Rule, bool) {
	pp := p.projections(c)
	ra, okA := p.a.EnabledRule(pp.a, v)
	rb, okB := p.b.EnabledRule(pp.b, v)
	p.release(pp)
	if !okA && !okB {
		return sim.NoRule, false
	}
	if !okA {
		ra = sim.NoRule
	}
	if !okB {
		rb = sim.NoRule
	}
	return p.internRule(ra, rb), true
}

// Apply implements sim.Protocol.
func (p *Product[A, B]) Apply(c sim.Config[Pair[A, B]], v int, r sim.Rule) Pair[A, B] {
	ra, rb := p.DecodeRule(r)
	pp := p.projections(c)
	next := c[v]
	if ra != sim.NoRule {
		next.First = p.a.Apply(pp.a, v, ra)
	}
	if rb != sim.NoRule {
		next.Second = p.b.Apply(pp.b, v, rb)
	}
	p.release(pp)
	return next
}

// RandomState implements sim.Protocol.
func (p *Product[A, B]) RandomState(v int, rng *rand.Rand) Pair[A, B] {
	return Pair[A, B]{First: p.a.RandomState(v, rng), Second: p.b.RandomState(v, rng)}
}

// RuleName implements sim.Protocol.
func (p *Product[A, B]) RuleName(r sim.Rule) string {
	ra, rb := p.DecodeRule(r)
	switch {
	case ra != sim.NoRule && rb != sim.NoRule:
		return p.a.RuleName(ra) + "+" + p.b.RuleName(rb)
	case ra != sim.NoRule:
		return p.a.RuleName(ra)
	case rb != sim.NoRule:
		return p.b.RuleName(rb)
	default:
		return "none"
	}
}

var _ sim.Protocol[Pair[int, int]] = (*Product[int, int])(nil)

// Local implements the sim locality hook: a product vertex's guard reads
// the union of the component read-sets, so the product declares locality
// exactly when both components do. Component lists are merged once into
// explicit adjacency lists; products of products compose transparently.
func (p *Product[A, B]) Local() (sim.Local, bool) {
	la, lb := sim.LocalOf(p.a), sim.LocalOf(p.b)
	if la == nil || lb == nil {
		return nil, false
	}
	lists := make(sim.NeighborLists, p.N())
	for v := range lists {
		lists[v] = sortedUnion(la.Neighbors(v), lb.Neighbors(v))
	}
	return lists, true
}

// sortedUnion merges two neighbor lists into a fresh sorted duplicate-free
// slice (inputs need not be sorted per the sim.Local contract).
func sortedUnion(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Ints(out)
	w := 0
	for i, x := range out {
		if i == 0 || x != out[w-1] {
			out[w] = x
			w++
		}
	}
	return out[:w]
}
