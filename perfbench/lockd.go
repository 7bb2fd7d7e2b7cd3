package main

// lockd-dijkstra: the end-to-end path. A 3-node loopback ring of Dijkstra's
// K-state protocol serves its client API over HTTP; a closed loop of client
// goroutines with no think time repeats acquire → release on seeded named
// locks, following not-owner redirects, for the timed region.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"specstab/internal/netrun"
	"specstab/internal/scenario"
)

// lockNames is the size of the seeded pool of lock names the clients draw
// from; names hash onto ring vertices, so the pool spreads the grants
// around the ring.
const lockNames = 64

// maxLeaseRetries bounds how often one operation is started again after
// its release was refused because the lease had already been reclaimed.
const maxLeaseRetries = 8

// lockOp records one attempt at an acquire → release pair of the closed
// loop. An attempt whose release is refused as an unknown token lost its
// lease: the client runs the pair again, as a client that lost its lock
// must, and the operation completes with its last attempt.
type lockOp struct {
	acquire   time.Duration // send → grant, redirects included; 0 if not granted
	done      time.Duration // end of the attempt, since the timed region began
	waitRound int64         // reply.Round minus the round read before sending
	redirects int
	leaseLost bool // the release was refused; the pair was run again
	failed    bool // the operation ends here without a released grant
}

// last reports whether the attempt ends its operation.
func (op lockOp) last() bool { return !op.leaseLost }

func lockSpec(p params) netrun.Spec {
	return netrun.Spec{
		Scenario: &scenario.Scenario{
			Seed:     p.seed,
			Protocol: scenario.ProtocolSpec{Name: "dijkstra"},
			Topology: scenario.TopologySpec{Name: "ring", N: p.lockdN},
			Daemon:   scenario.DaemonSpec{Name: "sync"},
			Init:     scenario.InitSpec{Mode: "random"},
		},
		Nodes: 3,
	}
}

// startCluster times one StartCluster call.
func startCluster(cc netrun.ClusterConfig, tr *tracer) (*netrun.Cluster, time.Duration, error) {
	sp := tr.begin("netrun.StartCluster", 0, 0)
	t0 := time.Now()
	c, err := netrun.StartCluster(cc)
	d := time.Since(t0)
	tr.finish(sp)
	return c, d, err
}

// stopCluster drains a cluster and waits for every node to finish.
func stopCluster(c *netrun.Cluster) error {
	defer c.Close()
	c.DrainAll()
	return c.Wait()
}

func runLockd(p params, tr *tracer) (*outcome, error) {
	o := &outcome{named: map[string]float64{}, layer: map[string]float64{}}
	cc := netrun.ClusterConfig{Spec: lockSpec(p), HTTP: true}

	// Set-up: start the ring several times and keep the last one.
	var c *netrun.Cluster
	for i := 0; i < p.lockdSetups; i++ {
		if c != nil {
			if err := stopCluster(c); err != nil {
				return nil, fmt.Errorf("stopping a set-up ring: %w", err)
			}
		}
		var d time.Duration
		var err error
		if c, d, err = startCluster(cc, tr); err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, d.Seconds())
	}
	defer c.Close()
	// The heap is marked before the load: the journal grows with a load
	// fixed by time, not rounds, so a later mark would grow with the round
	// rate (netrun-ssme measures the journal at a fixed round budget).
	o.markHeap()
	samp := sampleRounds(c.Node(0), tr)

	clients := min(p.lockdClients, runtime.NumCPU())
	addrs := c.ClientAddrs()
	node0 := c.Node(0)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stats0 := netrunStats(c, tr)
	start := time.Now()
	deadline := start.Add(p.seconds)
	perClient := make([][]lockOp, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			perClient[w] = lockLoop(p.seed, w, addrs, node0, start, deadline, tr)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	stats1 := netrunStats(c, tr)
	runtime.ReadMemStats(&ms1)
	samples := samp.stop()

	// One chunk per second of load; operations completing after the
	// deadline count as attempts but fall in no chunk.
	var ops []lockOp
	for _, po := range perClient {
		ops = append(ops, po...)
	}
	chunks := make([]chunk, max(1, int(p.seconds/time.Second)))
	width := p.seconds / time.Duration(len(chunks))
	for i := range chunks {
		chunks[i].dur = width
	}
	var leaseLost int64
	for _, op := range ops {
		if op.leaseLost {
			leaseLost++
		}
		if op.last() {
			o.attempted++
			if op.failed {
				o.failed++
			}
		}
		k := int(op.done / width)
		if k >= len(chunks) {
			continue
		}
		if op.last() && !op.failed {
			chunks[k].ops++
		}
		if op.acquire > 0 {
			chunks[k].latMs = append(chunks[k].latMs, ms(op.acquire))
		}
	}
	for _, ch := range chunks {
		o.add(ch)
	}

	// Safety: a stabilized ring issues no unsafe grant.
	var leaseExpired int64
	legitRound := int64(-1)
	for i := 0; i < c.Nodes(); i++ {
		st := nodeStatus(c.Node(i), tr)
		leaseExpired += st.LeaseExpired
		legitRound = max(legitRound, st.LegitRound)
		if st.LegitRound < 0 {
			o.violate("lockd node %d never stabilized", i)
		}
		if st.UnsafeGrantsPostLegit != 0 {
			o.violate("lockd node %d issued %d unsafe grants after stabilization", i, st.UnsafeGrantsPostLegit)
		}
	}
	if err := stopCluster(c); err != nil {
		return nil, fmt.Errorf("draining the ring: %w", err)
	}
	// The differential oracle: node 0's journal replays bitwise.
	replayS := replayJournal(o, p, node0, tr)

	rounds := stats1.round - stats0.round
	roundUs := 0.0
	if rounds > 0 {
		roundUs = us(elapsed) / float64(rounds)
	}
	sum := o.summarize()
	o.named["ops_per_s"] = sum.rate
	o.named["acquire_p50_ms"] = sum.p50
	o.named[fmt.Sprintf("acquire_p%g_ms", math.Round(sum.tailPct*10)/10)] = sum.tail
	o.named["failed_share"] = float64(o.failed) / float64(max(1, o.attempted))
	o.named["lease_lost_share"] = float64(leaseLost) / float64(max(1, o.attempted))

	if tr == nil {
		return o, nil
	}
	var waits, overheadUs, releaseUs []float64
	redirects := 0
	for _, op := range ops {
		redirects += op.redirects
		if op.acquire > 0 {
			waits = append(waits, float64(op.waitRound))
			overheadUs = append(overheadUs, us(op.acquire)-float64(op.waitRound)*roundUs)
		}
	}
	for _, d := range tr.durations("netrun.Client.Release") {
		releaseUs = append(releaseUs, us(d))
	}
	sort.Float64s(waits)
	sort.Float64s(overheadUs)
	sort.Float64s(releaseUs)
	l := o.layer
	l["netrun.round.us"] = roundUs
	l["netrun.gate.wait_rounds_p50"] = percentile(waits, 0.5)
	l["netrun.gate.wait_rounds_p99"] = percentile(waits, 0.99)
	l["netrun.http.acquire_overhead_us_p50"] = percentile(overheadUs, 0.5)
	l["netrun.http.release_us_p50"] = percentile(releaseUs, 0.5)
	l["netrun.http.release_us_p99"] = percentile(releaseUs, 0.99)
	l["netrun.http.redirects_per_op"] = float64(redirects) / float64(max(1, len(ops)))
	l["netrun.gate.lease_expired_per_1k_ops"] = 1000 * float64(leaseExpired) / float64(max(1, o.attempted))
	if rounds > 0 {
		l["netrun.round.wire_bytes"] = float64(stats1.bytesOut-stats0.bytesOut) / float64(rounds)
		l["netrun.round.allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(rounds)
	}
	l["netrun.round.barrier_stalls"] = float64(stats1.stalls - stats0.stalls)
	l["netrun.gate.legit_round"] = float64(legitRound)
	l["netrun.converge_ms"] = convergeMs(samples, legitRound)
	l["netrun.replay.s"] = replayS
	return o, nil
}

// lockLoop is one closed-loop client: acquire a seeded lock on node 0,
// follow redirects to the owner, release, repeat until the deadline.
func lockLoop(seed int64, w int, addrs []string, node0 *netrun.Node, start, deadline time.Time, tr *tracer) []lockOp {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(w)))
	cls := make([]*netrun.Client, len(addrs))
	for i, a := range addrs {
		cls[i] = netrun.NewClient(a)
	}
	who := fmt.Sprintf("client-%d", w)
	var ops []lockOp
	retries := 0
	var lock string
	for opID := int64(w+1) << 40; time.Now().Before(deadline); opID++ {
		if retries == 0 {
			lock = fmt.Sprintf("lock-%d", rng.Intn(lockNames))
		}
		root := tr.begin("op", 0, opID)
		var op lockOp

		sp := tr.begin("netrun.Node.Round", root.id, opID)
		before := node0.Round()
		tr.finish(sp)
		t0 := time.Now()
		sp = tr.begin("netrun.Client.Acquire", root.id, opID)
		rep, err := cls[0].Acquire(lock, who, 0)
		tr.finish(sp)
		for err == nil && !rep.Granted && rep.Reason == "not-owner" {
			op.redirects++
			sp = tr.begin("netrun.Client.Acquire", root.id, opID)
			rep, err = cls[rep.Node].Acquire(lock, who, 0)
			tr.finish(sp)
		}
		if err != nil || !rep.Granted {
			op.failed = true
			op.done = time.Since(start)
			ops = append(ops, op)
			tr.finish(root)
			retries = 0
			continue
		}
		op.acquire = time.Since(t0)
		op.waitRound = rep.Round - before

		sp = tr.begin("netrun.Client.Release", root.id, opID)
		rel, err := cls[rep.Node].Release(rep.Token)
		tr.finish(sp)
		switch {
		case err != nil:
			op.failed = true
		case !rel.Released && retries < maxLeaseRetries:
			op.leaseLost = true
		case !rel.Released:
			op.failed = true
		}
		if op.leaseLost {
			retries++
		} else {
			retries = 0
		}
		op.done = time.Since(start)
		ops = append(ops, op)
		tr.finish(root)
	}
	return ops
}

// ringCounters sums the transport counters of every node.
type ringCounters struct {
	round            int64
	bytesOut, stalls int64
}

func netrunStats(c *netrun.Cluster, tr *tracer) ringCounters {
	var rc ringCounters
	for i := 0; i < c.Nodes(); i++ {
		sp := tr.begin("netrun.Node.NetrunStats", 0, 0)
		st := c.Node(i).NetrunStats()
		tr.finish(sp)
		if i == 0 {
			rc.round = st.Round
		}
		rc.bytesOut += st.BytesOut
		rc.stalls += st.BarrierStalls
	}
	return rc
}
