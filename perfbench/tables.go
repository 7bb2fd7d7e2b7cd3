package main

// paper-tables: every experiment of EXPERIMENTS.md except E12 (whose
// wall-clock columns differ on every run), in full mode with the run's
// seed, through experiments.ByID. These are the only calls that reach the
// campaign, scenario, service and faults packages, and the tables they
// print are the reproduction's results, so they must never change.

import (
	"fmt"
	"strings"
	"time"

	"specstab/internal/experiments"
)

// tableIDs lists the experiments the workload regenerates, in order.
func tableIDs() []string {
	var ids []string
	for _, e := range experiments.Registry() {
		if e.ID != "e12" {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// tamper applies the smoke test's table hook, if set, to a pass's text.
func tamper(p params, tp tablePass) {
	if p.tamperTable == nil {
		return
	}
	for i := range tp.text {
		tp.text[i] = p.tamperTable(tp.text[i])
	}
}

// tablePass is one regeneration of every table.
type tablePass struct {
	text  []string // rendered tables, one entry per experiment
	per   []time.Duration
	total time.Duration
}

func runPass(exps []experiments.Experiment, cfg experiments.RunConfig, tr *tracer) (tablePass, error) {
	tp := tablePass{text: make([]string, len(exps)), per: make([]time.Duration, len(exps))}
	root := tr.begin("tables.pass", 0, 0)
	defer tr.finish(root)
	for i, e := range exps {
		sp := tr.begin("experiments."+e.ID+".Run", root.id, 0)
		t0 := time.Now()
		tables, err := e.Run(cfg)
		tp.per[i] = time.Since(t0)
		tr.finish(sp)
		if err != nil {
			return tp, fmt.Errorf("%s: %w", e.ID, err)
		}
		tp.total += tp.per[i]
		var b strings.Builder
		for _, t := range tables {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
		tp.text[i] = b.String()
	}
	return tp, nil
}

func runTables(p params, tr *tracer) (*outcome, error) {
	o := &outcome{named: map[string]float64{}, layer: map[string]float64{}}
	ids := tableIDs()
	exps := make([]experiments.Experiment, len(ids))
	// Set-up: resolve the experiments and warm every code path with a
	// quick-mode pass, several times.
	for s := 0; s < p.tablesSetups; s++ {
		t0 := time.Now()
		for i, id := range ids {
			e, err := experiments.ByID(id)
			if err != nil {
				return nil, err
			}
			exps[i] = e
		}
		if _, err := runPass(exps, experiments.RunConfig{Quick: true, Seed: p.seed}, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
	}

	cfg := experiments.RunConfig{Quick: p.tablesQuick, Seed: p.seed}
	// Tables are deterministic for every worker count: a pass on a single
	// worker, before the timed region, gives the bytes every timed pass at
	// the default worker count must print.
	seqCfg := cfg
	seqCfg.Workers = 1
	seq, err := runPass(exps, seqCfg, nil)
	if err != nil {
		return nil, fmt.Errorf("Workers: 1 pass: %w", err)
	}
	tamper(p, seq)
	var passS []float64
	for len(passS) == 0 || o.elapsed < p.seconds {
		tp, err := runPass(exps, cfg, tr)
		if err != nil {
			return nil, err
		}
		// One operation is one experiment's tables: a pass yields a
		// latency sample per experiment, so the percentiles rest on a
		// dozen samples a pass rather than one.
		ch := chunk{ops: int64(len(exps)), dur: tp.total}
		for _, d := range tp.per {
			ch.latMs = append(ch.latMs, ms(d))
		}
		o.attempted += ch.ops
		o.add(ch)
		passS = append(passS, tp.total.Seconds())
		o.markHeap()
		// Each pass is checked and dropped, so the heap does not grow
		// with the number of passes the timed region holds.
		tamper(p, tp)
		for i, text := range tp.text {
			if strings.Contains(text, "VIOLATED") {
				o.violate("%s prints VIOLATED", ids[i])
			}
			if text != seq.text[i] {
				o.violate("%s tables differ between default workers and Workers: 1", ids[i])
			}
		}
	}

	o.named["tables_s"] = median(passS)
	if tr == nil {
		return o, nil
	}
	for _, id := range ids {
		var d []float64
		for _, x := range tr.durations("experiments." + id + ".Run") {
			d = append(d, ms(x))
		}
		o.layer["experiments."+id+"_ms"] = median(d)
	}
	return o, nil
}
