package experiments

import (
	"fmt"

	"specstab/internal/campaign"
	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/faults"
	"specstab/internal/sim"
	"specstab/internal/stats"
)

// E10FaultStorm exercises the failure model self-stabilization exists for:
// bursts of transient faults corrupting anywhere from one register to the
// whole system, repeatedly, under both the synchronous daemon and a
// probabilistic distributed one. Every burst must be followed by autonomous
// re-stabilization (convergence), after which safety must hold until the
// next burst (closure) — Theorem 1, stress-tested.
//
// The grid is topology × daemon; each trial owns an rng (salted by trial
// index), so whole storm scenarios fan out and recoveries fold in grid
// order.
func E10FaultStorm(cfg RunConfig) ([]*stats.Table, error) {
	trials := cfg.pick(2, 5)
	table := stats.NewTable(
		"E10 — fault storms: re-stabilization after repeated transient bursts (worst over trials)",
		"graph", "daemon", "bursts", "recovered", "worst steps", "worst moves", "closure",
	)

	type cell struct {
		p      *core.Protocol
		gname  string
		dname  string
		mk     func() sim.Daemon[int]
		bursts []faults.Burst
		horiz  int
	}
	var cells []cell
	for _, g := range zoo(cfg) {
		p, err := core.New(g)
		if err != nil {
			return nil, err
		}
		bursts := []faults.Burst{
			{AfterSteps: 5, CorruptVertices: g.N()},
			{AfterSteps: 2, CorruptVertices: g.N() / 2},
			{AfterSteps: 0, CorruptVertices: 1},
			{AfterSteps: 10, CorruptVertices: g.N()},
		}
		scenarios := []struct {
			name    string
			mk      func() sim.Daemon[int]
			horizon int
		}{
			{"sd", func() sim.Daemon[int] { return daemon.NewSynchronous[int]() }, p.ServiceWindow()},
			{"ud/distributed-p0.50", func() sim.Daemon[int] { return daemon.NewDistributed[int](0.5) }, p.UnfairBoundMoves()},
		}
		for _, sc := range scenarios {
			cells = append(cells, cell{p: p, gname: g.Name(), dname: sc.name, mk: sc.mk, bursts: bursts, horiz: sc.horizon})
		}
	}

	err := campaign.Sweep(cfg.pool(), cells,
		func(cell) int { return trials },
		func(c cell, trial int) ([]sim.RunReport, error) {
			scenario := faults.Scenario[int]{
				Protocol:     c.p,
				NewDaemon:    c.mk,
				Legit:        c.p.Legitimate,
				Safe:         c.p.SafeME,
				HorizonSteps: c.horiz,
			}
			rng := cfg.rng(int64(19*c.p.Graph().N() + trial))
			initial := sim.RandomConfig[int](c.p, rng)
			recs, err := scenario.Run(initial, c.bursts, int64(trial+1))
			if err != nil {
				return nil, fmt.Errorf("e10 on %s: %w", c.gname, err)
			}
			return recs, nil
		},
		func(c cell, trialRecs [][]sim.RunReport) error {
			recovered := 0
			total := 0
			worstSteps, worstMoves := 0, 0
			closureOK := true
			for _, recs := range trialRecs {
				for _, rec := range recs {
					total++
					if rec.FirstLegitStep >= 0 {
						recovered++
					}
					if rec.ClosureBroken {
						closureOK = false
					}
					worstSteps = max(worstSteps, rec.FirstLegitStep)
					worstMoves = max(worstMoves, rec.FirstLegitMoves)
				}
			}
			table.AddRow(c.gname, c.dname, total,
				fmt.Sprintf("%d/%d", recovered, total),
				worstSteps, worstMoves, ok(closureOK && recovered == total))
			return nil
		})
	if err != nil {
		return nil, err
	}
	table.AddNote("bursts corrupt 1, n/2 or all n registers; recovery is autonomous — no external reset exists in the model")
	return []*stats.Table{table}, nil
}
