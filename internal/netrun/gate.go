package netrun

// The grant gate: the per-node adaptation of internal/service's grant
// discipline to the networked runtime. The service simulation owns a
// global view and ticks; the gate owns one shard and rounds. Per
// committed round it expires leases, times out stale waiters, and grants
// shard-owned vertices that are privileged in the freshly committed
// configuration — ascending vertex order, bounded by the system-wide
// capacity estimated from its own active grants plus every peer's
// frame-carried count (a one-round-lagged view; see the safety note on
// step). Clients interact through HTTP handlers that only touch the
// mutex-guarded queue state — the configuration itself is read
// exclusively by the round loop, so the gate never races the replica.

import (
	"fmt"
	"sync"

	"specstab/internal/service"
	"specstab/internal/sim"
)

// waiter is one parked acquire. The reply channel is buffered and the
// done flag is flipped under the gate mutex before any reply, so every
// waiter receives at most one reply and a canceled handler leaks
// nothing.
type waiter struct {
	vertex   int
	client   string
	deadline int64 // round after which the wait times out
	done     bool
	ch       chan AcquireReply
}

// grantRec is one outstanding grant.
type grantRec struct {
	vertex     int
	token      string
	client     string
	leaseRound int64 // round at which the grant is reclaimed
}

// gate serializes grant decisions for one node's shard.
type gate struct {
	// Immutable after construction.
	id, nodes, n int
	lo, hi       int
	capacity     int
	lease        int64
	lock         service.Lock
	legit        service.Legitimizer // nil when the lock declares none

	mu       sync.Mutex
	round    int64
	draining bool
	seq      int64
	waiters  []*waiter
	active   []grantRec

	grants       int64
	released     int64
	leaseExpired int64
	timeouts     int64
	unsafeGrants int64
	unsafePost   int64
	legitRound   int64
}

func newGate(id, nodes, n, lo, hi, capacity int, lease int64, lock service.Lock) *gate {
	g := &gate{
		id: id, nodes: nodes, n: n, lo: lo, hi: hi,
		capacity: capacity, lease: lease, lock: lock,
		legitRound: -1,
	}
	g.legit, _ = lock.(service.Legitimizer)
	return g
}

// acquire parks a request. A nil waiter means the reply is immediate
// (wrong owner, draining, bad lock name); otherwise the caller must wait
// on w.ch and cancel on abandonment.
func (g *gate) acquire(req AcquireRequest) (AcquireReply, *waiter) {
	v, err := ResolveLock(req.Lock, g.n)
	if err != nil {
		return AcquireReply{Vertex: -1, Node: g.id, Reason: err.Error()}, nil
	}
	if owner := nodeOf(g.n, g.nodes, v); owner != g.id {
		return AcquireReply{Vertex: v, Node: owner, Reason: "not-owner"}, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return AcquireReply{Vertex: v, Node: g.id, Round: g.round, Reason: "draining"}, nil
	}
	wait := req.WaitRounds
	if wait <= 0 {
		wait = DefaultWaitRounds
	}
	w := &waiter{
		vertex:   v,
		client:   req.Client,
		deadline: g.round + int64(wait),
		ch:       make(chan AcquireReply, 1),
	}
	g.waiters = append(g.waiters, w)
	return AcquireReply{}, w
}

// cancel abandons a parked waiter (client disconnected). A reply the
// round loop already buffered is drained here: the handler may have
// seen the hang-up first even though a grant was ready, and a grant no
// client will ever hold is released at once instead of occupying the
// vertex until its lease runs out.
func (g *gate) cancel(w *waiter) {
	g.mu.Lock()
	defer g.mu.Unlock()
	w.done = true
	select {
	case rep := <-w.ch:
		if rep.Granted {
			g.releaseToken(rep.Token)
		}
	default:
	}
}

// release returns a token. An unknown token is a refusal, not an HTTP
// error: the lease may already have reclaimed it, which the client
// should treat as having lost the lock.
func (g *gate) release(req ReleaseRequest) ReleaseReply {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.releaseToken(req.Token) {
		return ReleaseReply{Released: true, Round: g.round}
	}
	return ReleaseReply{Released: false, Round: g.round, Reason: "unknown token (lease expired?)"}
}

// releaseToken drops the outstanding grant holding tok, counting it as
// released, and reports whether there was one (callers hold g.mu).
func (g *gate) releaseToken(tok string) bool {
	for i, h := range g.active {
		if h.token == tok {
			g.active = append(g.active[:i], g.active[i+1:]...)
			g.released++
			return true
		}
	}
	return false
}

// drain stops admission and fails every parked waiter; the round loop
// exits once the remaining grants are released or reclaimed.
func (g *gate) drain() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.draining = true
	for _, w := range g.waiters {
		if !w.done {
			w.done = true
			w.ch <- AcquireReply{Vertex: w.vertex, Node: g.id, Round: g.round, Reason: "draining"}
		}
	}
	g.waiters = g.waiters[:0]
}

// idle reports whether nothing is held or parked — the drain exit
// condition.
func (g *gate) idle() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.active) == 0 && len(g.waiters) == 0
}

// activeCount is the node's contribution to its round frames.
func (g *gate) activeCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.active)
}

// step runs the gate for one committed round. cfg is the round's decoded
// configuration (read-only here; the round loop owns it) and peerActive
// the per-peer grant counts carried by this round's frames.
//
// Safety: grants require a locally privileged vertex and spare capacity
// under local-plus-reported occupancy. The reported half lags one round,
// so two nodes can over-grant only while the configuration exposes more
// privileges than the capacity — exactly the not-yet-stabilized window
// the unsafeGrants counters measure, and exactly the speculation bet of
// the paper: after convergence a capacity-1 ring has one privilege, one
// eligible node, and no race. The unsafePost counter (unsafe grants
// after the first legitimate round) is the invariant the acceptance and
// smoke tests pin to zero.
func (g *gate) step(round int64, cfg sim.Config[int], peerActive []uint32) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.round = round
	if g.legit != nil && g.legitRound < 0 && g.legit.Legitimate(cfg) {
		g.legitRound = round
	}
	// Reclaim expired leases before counting occupancy.
	kept := g.active[:0]
	for _, h := range g.active {
		if h.leaseRound <= round {
			g.leaseExpired++
		} else {
			kept = append(kept, h)
		}
	}
	g.active = kept
	occupancy := len(g.active)
	for _, a := range peerActive {
		occupancy += int(a)
	}
	// Grant ascending over the shard: deterministic order, same as the
	// service simulation's tick. With no waiter parked nothing can be
	// granted, so the pass — and its privilege reads — is skipped.
	//
	// The exact global privilege count — computable locally because every
	// node holds the full replica — is the safety observer. It is O(n),
	// so it runs only on a round that grants, at its first grant; cfg
	// does not change during step, so a late count equals an early one.
	priv := -1
	for v := g.lo; v < g.hi && occupancy < g.capacity && len(g.waiters) > 0; v++ {
		if g.vertexHeld(v) || !g.lock.Privileged(cfg, v) {
			continue
		}
		w := g.popWaiter(v)
		if w == nil {
			continue
		}
		g.seq++
		tok := fmt.Sprintf("%d.%d.%d", g.id, v, g.seq)
		leaseRound := round + g.lease
		g.active = append(g.active, grantRec{vertex: v, token: tok, client: w.client, leaseRound: leaseRound})
		g.grants++
		if priv < 0 {
			priv = g.privileged(cfg)
		}
		if priv > g.capacity {
			g.unsafeGrants++
			if g.legitRound >= 0 {
				g.unsafePost++
			}
		}
		occupancy++
		w.done = true
		w.ch <- AcquireReply{
			Granted: true, Token: tok, Vertex: v, Node: g.id,
			Round: round, LeaseRound: leaseRound,
		}
	}
	// Time out stale waiters after the grant pass, so a grant and an
	// expiry in the same round resolve in the waiter's favor.
	live := g.waiters[:0]
	for _, w := range g.waiters {
		switch {
		case w.done:
		case w.deadline <= round:
			g.timeouts++
			w.done = true
			w.ch <- AcquireReply{Vertex: w.vertex, Node: g.id, Round: round, Reason: "timeout"}
		default:
			live = append(live, w)
		}
	}
	g.waiters = live
}

// privileged counts the vertices privileged in cfg across the whole
// ring.
func (g *gate) privileged(cfg sim.Config[int]) int {
	priv := 0
	for v := 0; v < g.n; v++ {
		if g.lock.Privileged(cfg, v) {
			priv++
		}
	}
	return priv
}

// vertexHeld reports whether v already carries an outstanding grant
// (callers hold g.mu).
func (g *gate) vertexHeld(v int) bool {
	for _, h := range g.active {
		if h.vertex == v {
			return true
		}
	}
	return false
}

// popWaiter returns the oldest live waiter for v, marking nothing — the
// caller completes the grant (callers hold g.mu).
func (g *gate) popWaiter(v int) *waiter {
	for _, w := range g.waiters {
		if !w.done && w.vertex == v {
			return w
		}
	}
	return nil
}

// fill copies the gate's counters into a status snapshot.
func (g *gate) fill(rep *StatusReply) {
	g.mu.Lock()
	defer g.mu.Unlock()
	backlog := 0
	for _, w := range g.waiters {
		if !w.done {
			backlog++
		}
	}
	rep.Draining = g.draining
	rep.Backlog = backlog
	rep.Active = len(g.active)
	rep.Grants = g.grants
	rep.Released = g.released
	rep.LeaseExpired = g.leaseExpired
	rep.UnsafeGrants = g.unsafeGrants
	rep.UnsafeGrantsPostLegit = g.unsafePost
	rep.LegitRound = g.legitRound
}
