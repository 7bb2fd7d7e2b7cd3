package main

// The benchmark's own smoke test: every workload at a tiny size must print
// every metric BENCHMARK.json declares, with its unit, and a tampered
// journal or a table containing VIOLATED must fail the run.
//
//	cd perfbench && go test .

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"specstab/internal/netrun"
)

// tinyParams shrinks every workload to a fraction of a second.
func tinyParams() params {
	p := defaultParams(3, 300*time.Millisecond)
	p.lockdN, p.lockdSetups = 12, 2
	p.ringN, p.ringRounds, p.ringTrials = 48, 4000, 2
	p.simN, p.simSetups = 256, 2
	p.tablesQuick, p.tablesSetups = true, 1
	return p
}

type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runOnce runs a workload and returns its exit code and parsed result.
func runOnce(t *testing.T, name string, p params, traced bool) (int, result) {
	t.Helper()
	var out bytes.Buffer
	code, err := runWorkload(name, p, traced, &out, t.TempDir())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", name, err, out.String())
	}
	return code, res
}

func checkMetrics(t *testing.T, name string, got map[string]metric, want []struct{ Name, Unit string }, nonZero bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s prints %d metrics, BENCHMARK.json declares %d", name, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s does not print %s", name, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s prints %s in %q, BENCHMARK.json says %q", name, w.Name, m.Unit, w.Unit)
		case nonZero && m.Value <= 0:
			t.Errorf("%s prints %s = %v", name, w.Name, m.Value)
		}
	}
}

// TestEveryWorkloadPrintsEveryMetric runs every workload the benchmark
// knows, sim-ssme-sync included although BENCHMARK.json does not gate it.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	d := loadDeclared(t)
	for _, w := range d.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares workload %s, the benchmark has none", w.Name)
		}
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			code, res := runOnce(t, name, tinyParams(), false)
			if code != 0 || !res.Correct || res.Attempted < 1 {
				t.Fatalf("untraced run: exit %d, %+v", code, res)
			}
			checkMetrics(t, name, res.Metrics, d.EndToEnd, true)
			code, res = runOnce(t, name, tinyParams(), true)
			if code != 0 || !res.Correct {
				t.Fatalf("traced run: exit %d, %+v", code, res)
			}
			checkMetrics(t, name, res.Metrics, d.PerLayer, false)
			if res.Metrics["trace.spans"].Value < 1 {
				t.Errorf("traced run recorded no spans")
			}
		})
	}
}

func TestTamperedJournalFailsTheRun(t *testing.T) {
	p := tinyParams()
	p.tamperJournal = func(j *netrun.Journal) {
		e := &j.Entries[len(j.Entries)/2]
		e.FP = strings.Repeat("0", len(e.FP))
	}
	code, res := runOnce(t, "lockd-dijkstra", p, false)
	if code == 0 || res.Correct {
		t.Fatalf("a tampered journal passed: exit %d, %+v", code, res)
	}
}

func TestViolatedTableFailsTheRun(t *testing.T) {
	p := tinyParams()
	p.tamperTable = func(s string) string { return s + "\nSafeME VIOLATED\n" }
	code, res := runOnce(t, "paper-tables", p, false)
	if code == 0 || res.Correct {
		t.Fatalf("a VIOLATED table passed: exit %d, %+v", code, res)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if pct, v := tailPercentile(xs); pct != 99 || v != 1980 {
		t.Errorf("2000 samples: p%v = %v, want p99 = 1980", pct, v)
	}
	if pct, v := tailPercentile(xs[:100]); pct != 90 || v != 90 {
		t.Errorf("100 samples: p%v = %v, want p90 = 90 (ten samples above)", pct, v)
	}
	if pct, v := tailPercentile(xs[:12]); pct != 90 || v != 11 {
		t.Errorf("12 samples: p%v = %v, want p90 = 11", pct, v)
	}
}
