package graph

// This file computes the distance-based metrics of Section 2:
// dist(g, u, v), eccentricities and diam(g). All-pairs distances are
// memoized as int16 (systems simulated here are far below 32k vertices,
// and the APSP matrix dominates the memory footprint for dense sweeps).

func (g *Graph) ensureDist() {
	g.distOnce.Do(g.computeDist)
}

func (g *Graph) computeDist() {
	n := g.N()
	dist := make([][]int16, n)
	ecc := make([]int, n)
	for src := 0; src < n; src++ {
		row := make([]int16, n)
		for i := range row {
			row[i] = -1
		}
		row[src] = 0
		queue := make([]int, 0, n)
		queue = append(queue, src)
		far := 0
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			du := row[u]
			for _, v := range g.adj[u] {
				if row[v] < 0 {
					row[v] = du + 1
					if int(row[v]) > far {
						far = int(row[v])
					}
					queue = append(queue, v)
				}
			}
		}
		dist[src] = row
		ecc[src] = far
	}
	diam := 0
	for _, e := range ecc {
		if e > diam {
			diam = e
		}
	}
	g.dist, g.ecc, g.diam = dist, ecc, diam
}

// Dist returns dist(g, u, v), the length of a shortest path between u and v.
func (g *Graph) Dist(u, v int) int {
	g.ensureDist()
	return int(g.dist[u][v])
}

// Diameter returns diam(g), the maximal distance between two vertices.
// A single-vertex graph has diameter 0.
func (g *Graph) Diameter() int {
	g.ensureDist()
	return g.diam
}

// Radius returns the minimal eccentricity over all vertices.
func (g *Graph) Radius() int {
	g.ensureDist()
	r := g.ecc[0]
	for _, e := range g.ecc {
		if e < r {
			r = e
		}
	}
	return r
}

// Peripheral returns a pair of vertices (u, v) with dist(g,u,v) = diam(g).
// Theorem 4's lower-bound construction and the adversarial island
// configurations of internal/core both start from such an antipodal pair.
func (g *Graph) Peripheral() (u, v int) {
	g.ensureDist()
	for a := 0; a < g.N(); a++ {
		for b := a; b < g.N(); b++ {
			if int(g.dist[a][b]) == g.diam {
				return a, b
			}
		}
	}
	return 0, 0 // unreachable on a valid graph; n==1 yields (0,0).
}

// Ball returns the set of vertices at distance at most r from center,
// in increasing vertex order.
func (g *Graph) Ball(center, r int) []int {
	g.ensureDist()
	var out []int
	for v := 0; v < g.N(); v++ {
		if int(g.dist[center][v]) <= r {
			out = append(out, v)
		}
	}
	return out
}

// BFSDistances returns a fresh slice of distances from src to every vertex.
func (g *Graph) BFSDistances(src int) []int {
	g.ensureDist()
	out := make([]int, g.N())
	for v := range out {
		out[v] = int(g.dist[src][v])
	}
	return out
}

// IsTree reports whether the graph is acyclic (m = n − 1; it is connected
// by construction). Trees have hole(g) = cyclo(g) = 2 by the conventions
// of Boulinier et al.
func (g *Graph) IsTree() bool { return g.m == g.N()-1 }
