package dijkstra_test

import (
	"fmt"

	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/sim"
)

// From the uniform configuration only the bottom machine holds a
// privilege; firing it starts the token's circulation.
func Example() {
	p := dijkstra.MustNew(5, 5)
	c := sim.Config[int]{2, 2, 2, 2, 2}
	fmt.Println("tokens:", p.TokenCount(c), "bottom privileged:", p.Privileged(c, 0))

	e := sim.MustEngine[int](p, daemon.NewMinIDCentral[int](), c, 1)
	if _, err := e.Step(); err != nil {
		fmt.Println(err)
		return
	}
	next := e.Current()
	fmt.Println("after bottom fires:", next, "token now at:", 1)
	// Output:
	// tokens: 1 bottom privileged: true
	// after bottom fires: [3 2 2 2 2] token now at: 1
	_ = next
}

// The alternating-runs worst case costs exactly (n/2−1)² moves under the
// rightmost-token schedule — the Θ(n²) of Section 3.
func ExampleProtocol_WorstConfig() {
	p := dijkstra.MustNew(12, 12)
	e := sim.MustEngine[int](p, daemon.NewMaxIDCentral[int](), p.WorstConfig(), 1)
	rep, err := sim.MeasureConvergence(e, p.UnfairHorizonMoves(), -1, p.SafeME, p.Legitimate)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%d moves to a single token ((n/2-1)^2 = %d)\n", rep.FirstLegitMoves, 25)
	// Output: 25 moves to a single token ((n/2-1)^2 = 25)
}
