package netrun

// Gate tests: the privilege scan runs only on rounds that grant, the lazy
// count yields exactly the safety counters an eager per-round count
// yields, and a grant whose client hung up is reclaimed at once.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"specstab/internal/scenario"
	"specstab/internal/service"
	"specstab/internal/sim"
)

// countingLock counts the gate's Privileged reads and passes everything
// else through to the wrapped lock.
type countingLock struct {
	service.Lock
	legit     service.Legitimizer
	privCalls int
}

func (l *countingLock) Privileged(c sim.Config[int], v int) bool {
	l.privCalls++
	return l.Lock.Privileged(c, v)
}

func (l *countingLock) Legitimate(c sim.Config[int]) bool { return l.legit.Legitimate(c) }

// dijkstraRing builds a seeded Dijkstra ring from a random start and
// returns its lock (wrapped for counting) and initial configuration.
func dijkstraRing(t *testing.T, n int, seed int64) (*countingLock, sim.Config[int]) {
	t.Helper()
	_, lock, initial, err := scenario.BuildLock(&scenario.Scenario{
		Seed:     seed,
		Protocol: scenario.ProtocolSpec{Name: "dijkstra"},
		Topology: scenario.TopologySpec{Name: "ring", N: n},
		Daemon:   scenario.DaemonSpec{Name: "sync"},
		Init:     scenario.InitSpec{Mode: "random"},
	})
	if err != nil {
		t.Fatal(err)
	}
	legit, ok := lock.(service.Legitimizer)
	if !ok {
		t.Fatal("dijkstra lock declares no legitimacy predicate")
	}
	return &countingLock{Lock: lock, legit: legit}, initial
}

// syncStep fires every enabled vertex of c at once and returns the next
// configuration.
func syncStep(p sim.Protocol[int], c sim.Config[int]) sim.Config[int] {
	next := append(sim.Config[int](nil), c...)
	for v := range c {
		if r, ok := p.EnabledRule(c, v); ok {
			next[v] = p.Apply(c, v, r)
		}
	}
	return next
}

// TestGateNoPrivilegeScanWithoutWaiters: a round with nobody parked
// cannot grant, so it must not read a single privilege.
func TestGateNoPrivilegeScanWithoutWaiters(t *testing.T) {
	const n = 24
	lock, cfg := dijkstraRing(t, n, 5)
	g := newGate(0, 3, n, 0, n/3, 1, 64, lock)
	for r := int64(1); r <= 50; r++ {
		g.step(r, cfg, []uint32{0, 0})
		cfg = syncStep(lock, cfg)
	}
	if lock.privCalls != 0 {
		t.Fatalf("50 rounds without waiters made %d Privileged calls, want 0", lock.privCalls)
	}
	if _, w := g.acquire(AcquireRequest{Lock: "vertex:3", Client: "c"}); w == nil {
		t.Fatal("acquire on an owned vertex was not parked")
	}
	g.step(51, cfg, []uint32{0, 0})
	if lock.privCalls == 0 {
		t.Fatal("a round with a parked waiter read no privileges")
	}
}

// eagerStep is the reference gate round: it counts the ring's
// privileges before anything else on every round. It shares the gate's
// helpers and differs from step only in when priv is computed.
func eagerStep(g *gate, round int64, cfg sim.Config[int], peerActive []uint32) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.round = round
	if g.legit != nil && g.legitRound < 0 && g.legit.Legitimate(cfg) {
		g.legitRound = round
	}
	priv := 0
	for v := 0; v < g.n; v++ {
		if g.lock.Privileged(cfg, v) {
			priv++
		}
	}
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
	for v := g.lo; v < g.hi && occupancy < g.capacity; v++ {
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

// gateRun drives one gate over a seeded, not-yet-stabilized Dijkstra ring
// with a randomized stream of acquires and releases, and returns every
// reply plus the final counters as a transcript, and the number of
// Privileged reads the gate made.
func gateRun(t *testing.T, capacity int, step func(*gate, int64, sim.Config[int], []uint32)) ([]string, int) {
	const n, rounds = 24, 400
	lock, cfg := dijkstraRing(t, n, 11)
	if lock.legit.Legitimate(cfg) {
		t.Fatal("seed starts legitimate; the test needs the unstabilized window")
	}
	g := newGate(0, 1, n, 0, n, capacity, 6, lock)
	rng := rand.New(rand.NewSource(17))
	var parked []*waiter
	var held []string
	var out []string
	for r := int64(1); r <= rounds; r++ {
		// Quiet stretches (no waiter at all) alternate with bursts.
		if r%40 < 25 {
			for k := rng.Intn(4); k > 0; k-- {
				req := AcquireRequest{Lock: fmt.Sprintf("vertex:%d", rng.Intn(n)), Client: "c", WaitRounds: 1 + rng.Intn(8)}
				if _, w := g.acquire(req); w != nil {
					parked = append(parked, w)
				}
			}
		}
		for len(held) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(held))
			out = append(out, fmt.Sprintf("r%d release %s: %v", r, held[i], g.release(ReleaseRequest{Token: held[i]}).Released))
			held = append(held[:i], held[i+1:]...)
		}
		step(g, r, cfg, nil)
		live := parked[:0]
		for _, w := range parked {
			select {
			case rep := <-w.ch:
				out = append(out, fmt.Sprintf("r%d %+v", r, rep))
				if rep.Granted {
					held = append(held, rep.Token)
				}
			default:
				live = append(live, w)
			}
		}
		parked = live
		cfg = syncStep(lock, cfg)
	}
	var st StatusReply
	g.fill(&st)
	out = append(out, fmt.Sprintf("grants=%d unsafe=%d unsafePost=%d released=%d expired=%d legit=%d",
		st.Grants, st.UnsafeGrants, st.UnsafeGrantsPostLegit, st.Released, st.LeaseExpired, st.LegitRound))
	if st.Grants == 0 || st.UnsafeGrants == 0 || st.LegitRound < 0 {
		t.Fatalf("run too tame to compare the counters: %s", out[len(out)-1])
	}
	return out, lock.privCalls
}

// TestGateLazyPrivilegeCount: counting privileges at a round's first
// grant yields the same replies and the same grants, unsafeGrants and
// unsafePost as counting them eagerly every round — with fewer reads.
func TestGateLazyPrivilegeCount(t *testing.T) {
	for _, capacity := range []int{1, 2} {
		lazy, lazyCalls := gateRun(t, capacity, (*gate).step)
		eager, eagerCalls := gateRun(t, capacity, eagerStep)
		if len(lazy) != len(eager) {
			t.Fatalf("capacity %d: lazy transcript has %d events, eager %d", capacity, len(lazy), len(eager))
		}
		for i := range lazy {
			if lazy[i] != eager[i] {
				t.Fatalf("capacity %d: event %d differs:\n lazy  %s\n eager %s", capacity, i, lazy[i], eager[i])
			}
		}
		if lazyCalls >= eagerCalls {
			t.Errorf("capacity %d: lazy gate read %d privileges, eager %d", capacity, lazyCalls, eagerCalls)
		}
		t.Logf("capacity %d: %s; Privileged reads lazy %d, eager %d", capacity, lazy[len(lazy)-1], lazyCalls, eagerCalls)
	}
}

// TestGateCancelReclaimsGrant: the handler can observe its client's
// hang-up while a grant already sits in the waiter's buffer. cancel must
// take that grant back at once — counted as released — rather than
// leave it held by nobody until the lease runs out.
func TestGateCancelReclaimsGrant(t *testing.T) {
	const n = 24
	lock, cfg := dijkstraRing(t, n, 5)
	v := -1
	for u := 0; u < n && v < 0; u++ {
		if lock.Privileged(cfg, u) {
			v = u
		}
	}
	if v < 0 {
		t.Fatal("no privileged vertex in the initial configuration")
	}
	const lease = 4
	g := newGate(0, 1, n, 0, n, n, lease, lock)
	_, w := g.acquire(AcquireRequest{Lock: fmt.Sprintf("vertex:%d", v), Client: "gone"})
	if w == nil {
		t.Fatal("acquire was not parked")
	}
	g.step(1, cfg, nil)
	var st StatusReply
	g.fill(&st)
	if st.Grants != 1 || st.Active != 1 {
		t.Fatalf("round 1 did not grant vertex %d: %+v", v, st)
	}
	g.cancel(w)
	g.fill(&st)
	if st.Active != 0 || st.Released != 1 {
		t.Fatalf("canceled grant still held: active %d, released %d", st.Active, st.Released)
	}
	// Past the lease horizon nothing is left to expire.
	for r := int64(2); r <= 2*lease; r++ {
		g.step(r, cfg, nil)
	}
	g.fill(&st)
	if st.LeaseExpired != 0 || st.Active != 0 {
		t.Fatalf("after cancel: lease expired %d, active %d, want 0 and 0", st.LeaseExpired, st.Active)
	}

	// A waiter canceled before any grant is simply never granted.
	_, w = g.acquire(AcquireRequest{Lock: fmt.Sprintf("vertex:%d", v), Client: "gone"})
	g.cancel(w)
	g.step(2*lease+1, cfg, nil)
	g.fill(&st)
	if st.Grants != 1 || st.Active != 0 || st.Released != 1 {
		t.Fatalf("a canceled waiter was granted: %+v", st)
	}
}

// TestGateCancelRacesRounds runs hang-ups concurrently with the round
// loop (run it under -race): whichever side wins each race, every grant
// ends up released by its client or reclaimed by cancel — none is left
// for the lease to find.
func TestGateCancelRacesRounds(t *testing.T) {
	const n, ops = 24, 200
	lock, cfg := dijkstraRing(t, n, 5)
	var priv []int
	for v := 0; v < n; v++ {
		if lock.Privileged(cfg, v) {
			priv = append(priv, v)
		}
	}
	// One vertex per worker: a worker's acquire finds its vertex free —
	// unless a canceled grant leaked — and is granted at the next round.
	workers := min(4, len(priv))
	g := newGate(0, 1, n, 0, n, n, 1<<40, lock)
	stop := make(chan struct{})
	stepped := make(chan struct{})
	go func() {
		defer close(stepped)
		for r := int64(1); ; r++ {
			select {
			case <-stop:
				return
			default:
			}
			g.step(r, cfg, nil)
			runtime.Gosched() // let the workers run on a single P
		}
	}()
	errs := make(chan error, workers)
	for k := 0; k < workers; k++ {
		go func() {
			rng := rand.New(rand.NewSource(int64(k)))
			lockName := fmt.Sprintf("vertex:%d", priv[k])
			for i := 0; i < ops; i++ {
				_, w := g.acquire(AcquireRequest{Lock: lockName, Client: "c", WaitRounds: 1000})
				if w == nil {
					errs <- fmt.Errorf("worker %d: acquire not parked", k)
					return
				}
				if rng.Intn(2) == 0 {
					g.cancel(w)
					continue
				}
				rep := <-w.ch
				if !rep.Granted {
					errs <- fmt.Errorf("worker %d: %+v", k, rep)
					return
				}
				if !g.release(ReleaseRequest{Token: rep.Token}).Released {
					errs <- fmt.Errorf("worker %d: release of %s refused", k, rep.Token)
					return
				}
			}
			errs <- nil
		}()
	}
	for k := 0; k < workers; k++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	<-stepped
	var st StatusReply
	g.fill(&st)
	if st.Active != 0 || st.LeaseExpired != 0 || st.Grants != st.Released {
		t.Fatalf("grants %d, released %d, active %d, lease expired %d: a canceled grant leaked",
			st.Grants, st.Released, st.Active, st.LeaseExpired)
	}
}
