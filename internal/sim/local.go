package sim

import "sort"

// Local is an optional capability of a Protocol: a declaration of the
// guard's read-set. Neighbors(v) must list every vertex u ≠ v whose state
// the guard of v reads — the read-set closure of EnabledRule(·, v). For the
// neighbor-reading protocols of this repository that is exactly the
// communication graph's adjacency; for directed read patterns (Dijkstra's
// ring, where v reads only its predecessor) it is the strict read-set,
// which may be asymmetric.
//
// The contract is what makes incremental enabled-set maintenance sound: in
// Dijkstra's atomic-state model a step changes only the states of the
// activated vertices, so the only vertices whose enabledness can change are
// the activated ones and the vertices that read them. An engine given a
// Local protocol re-evaluates guards only on that closed neighborhood (see
// Engine and DESIGN.md §6); a Neighbors that under-reports its read-set
// silently corrupts executions, so it must err on the side of inclusion.
//
// Neighbors may return a shared slice; callers must not mutate it. The
// returned ids need not be sorted (the engine sorts what it derives).
type Local interface {
	Neighbors(v int) []int
}

// NeighborLists is a Local backed by explicit adjacency lists — the
// building block for wrappers (compositions, products) that derive their
// read-sets from their components.
type NeighborLists [][]int

// Neighbors implements Local.
func (l NeighborLists) Neighbors(v int) []int { return l[v] }

// localProvider is the optional hook for wrapper protocols whose locality
// is conditional on their components (e.g. compose.Product): when
// implemented it takes precedence over a direct Local implementation, and
// returning ok=false opts out of locality entirely.
type localProvider interface {
	Local() (Local, bool)
}

// LocalOf returns p's locality declaration, or nil when p does not declare
// one (the engine then falls back to full guard rescans).
func LocalOf[S comparable](p Protocol[S]) Local {
	if lp, ok := any(p).(localProvider); ok {
		l, declared := lp.Local()
		if !declared {
			return nil
		}
		return l
	}
	if l, ok := any(p).(Local); ok {
		return l
	}
	return nil
}

// InfluenceSets inverts the read-set relation of l: out[v] lists, in
// increasing order and without duplicates, the vertices whose enabledness
// may change when v's state changes — v itself plus every u with
// v ∈ l.Neighbors(u).
func InfluenceSets(n int, l Local) [][]int {
	out := make([][]int, n)
	for v := 0; v < n; v++ {
		out[v] = append(out[v], v)
	}
	for u := 0; u < n; u++ {
		for _, v := range l.Neighbors(u) {
			if v != u {
				out[v] = append(out[v], u)
			}
		}
	}
	for v := range out {
		sort.Ints(out[v])
		out[v] = dedupSorted(out[v])
	}
	return out
}

// dedupSorted removes adjacent duplicates from a sorted slice in place.
func dedupSorted(xs []int) []int {
	w := 0
	for i, x := range xs {
		if i == 0 || x != xs[w-1] {
			xs[w] = x
			w++
		}
	}
	return xs[:w]
}
