// Command perfbench is the repository's benchmark: one command that runs
// one of four named workloads from a seed, times it from outside the
// program, checks that the program's outputs are correct, and prints every
// metric by name with its unit.
//
//	perfbench --workload lockd-dijkstra --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	lockd-dijkstra  3-node loopback lockd ring served over HTTP to a closed
//	                loop of clients (the end-to-end acquire→grant→release path)
//	netrun-ssme     the same runtime without clients, SSME on a 1024-ring
//	sim-ssme-sync   the in-process engine and shard pool, SSME on a 16384-ring
//	paper-tables    every experiment table except E12, through experiments.ByID
//
// BENCHMARK.json gates all of them but sim-ssme-sync, whose spread between
// runs on a 2-CPU host exceeds the bounds (perfbench/README.md); it stays
// runnable for its per-layer metrics.
//
// With --trace 0 the last line of standard output is one JSON object whose
// metrics are the end-to-end metrics. With --trace 1 the workload runs twice,
// half the time each: untraced, then with spans recorded around every call
// into a layer's public functions. The spans are written to
// .bench_build/traces/ and the metrics are the per-layer metrics derived from
// them, plus the tracing overhead (the gap between the two halves). The line
// before the result stamps the host, the source and the seed.
//
// Every workload reports every metric. A per-layer metric of a layer the
// workload never calls reads 0: that layer did no work.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"specstab/internal/netrun"
)

// params sizes one run. main fills it from the flags and the fixed workload
// sizes; the smoke test shrinks the sizes and sets the tamper hooks.
type params struct {
	seed    int64
	seconds time.Duration

	lockdN       int // ring size of lockd-dijkstra
	lockdClients int // closed-loop client goroutines
	lockdSetups  int // cluster start-ups timed for setup_s

	ringN      int   // ring size of netrun-ssme
	ringRounds int64 // round budget of one netrun-ssme trial
	ringTrials int   // minimum number of trials; each starts a cluster

	simN      int // ring size of sim-ssme-sync
	simSetups int // engine set-ups timed for setup_s

	tablesQuick  bool // run the experiments in quick mode
	tablesSetups int  // warm-up passes timed for setup_s

	// Test hooks: tamperJournal edits a journal before it is replayed,
	// tamperTable edits rendered table text before it is checked.
	tamperJournal func(*netrun.Journal)
	tamperTable   func(string) string
}

func defaultParams(seed int64, seconds time.Duration) params {
	return params{
		seed:         seed,
		seconds:      seconds,
		lockdN:       24,
		lockdClients: 2,
		lockdSetups:  21,
		ringN:        1024,
		ringRounds:   6000,
		ringTrials:   3,
		simN:         16384,
		simSetups:    3,
		tablesSetups: 5,
	}
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int64
	// violations lists every failed correctness check; empty means correct.
	violations []string

	setupS  []float64 // one sample per set-up, seconds
	chunks  []chunk
	ops     int64         // completed operations, summed over chunks
	elapsed time.Duration // timed region, summed over chunks
	latMs   []float64     // every chunk's latency samples, milliseconds
	// heapPeak is the largest live heap, in bytes, measured by markHeap.
	heapPeak uint64

	// named holds the workload's own end-to-end figures under the names the
	// workload's users know them by (acquire_p50_ms, rounds_per_s, ...);
	// they are printed on the stamp line.
	named map[string]float64
	// layer holds per-layer metrics derived from spans and counters.
	layer map[string]float64
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

// chunk is one slice of the timed region: a trial, a pass, or one second
// of client load. Latency percentiles are taken per chunk and averaged over
// chunks. An average, not a median, because the trials of sim-ssme-sync
// fall into two modes (every vertex fires, or all but one do, which takes
// the slower partial-firing path); a median over a few trials jumps between
// the modes, an average moves with their mix.
type chunk struct {
	ops   int64
	dur   time.Duration
	latMs []float64 // per-operation latency samples, milliseconds
}

// minChunkSamples is the number of latency samples every chunk must hold
// for percentiles to be taken per chunk; below it they are pooled.
const minChunkSamples = 100

// markHeap collects garbage at the end of a chunk, outside the timed
// region, while the chunk's state (journals, engine, distance matrix) is
// still held; the largest live heap so measured is heap_peak_mb. It
// returns the live heap in bytes.
func (o *outcome) markHeap() uint64 {
	h := liveHeap()
	o.heapPeak = max(o.heapPeak, h)
	return h
}

func (o *outcome) add(c chunk) {
	o.chunks = append(o.chunks, c)
	o.ops += c.ops
	o.elapsed += c.dur
	o.latMs = append(o.latMs, c.latMs...)
}

// summary holds the end-to-end figures of an outcome.
type summary struct {
	rate      float64 // operations per second
	p50, tail float64 // latency, milliseconds
	tailPct   float64 // the percentile the tail was taken at
}

// summarize returns the rate over the whole timed region and the latency
// median and tail: averages over chunks of each chunk's percentile when
// every chunk holds minChunkSamples samples, else percentiles of all
// samples pooled.
func (o *outcome) summarize() summary {
	var rate float64
	if o.elapsed > 0 {
		rate = float64(o.ops) / o.elapsed.Seconds()
	}
	perChunk := len(o.chunks) > 0
	for _, c := range o.chunks {
		perChunk = perChunk && len(c.latMs) >= minChunkSamples
	}
	groups := [][]float64{o.latMs}
	if perChunk {
		groups = groups[:0]
		for _, c := range o.chunks {
			groups = append(groups, c.latMs)
		}
	}
	sum := summary{rate: rate}
	for _, g := range groups {
		s := append([]float64(nil), g...)
		sort.Float64s(s)
		pct, t := tailPercentile(s)
		sum.p50 += percentile(s, 0.5) / float64(len(groups))
		sum.tail += t / float64(len(groups))
		sum.tailPct += pct / float64(len(groups))
	}
	return sum
}

type workloadFunc func(p params, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"lockd-dijkstra": runLockd,
	"netrun-ssme":    runRing,
	"sim-ssme-sync":  runSim,
	"paper-tables":   runTables,
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	code, err := run(os.Args[1:], os.Stdout, ".bench_build/traces")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses args, runs the workload and prints the stamp and result lines
// to out. It returns the exit code: 0 for a correct run, 1 for a violated
// check (the result is still printed) or an error (nothing is printed).
func run(args []string, out io.Writer, traceDir string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload name")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 10, "length of the timed region")
		trace   = fs.Int("trace", 0, "1 records spans and prints per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return 2, fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	p := defaultParams(*seed, time.Duration(*seconds*float64(time.Second)))
	return runWorkload(*name, p, *trace == 1, out, traceDir)
}

func runWorkload(name string, p params, traced bool, out io.Writer, traceDir string) (int, error) {
	wf, ok := workloads[name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	var o *outcome
	var metrics map[string]metric
	if !traced {
		var err error
		if o, err = wf(p, nil); err != nil {
			return 1, err
		}
		metrics = endToEnd(o)
	} else {
		half := p
		half.seconds = p.seconds / 2
		base, err := wf(half, nil)
		if err != nil {
			return 1, err
		}
		tr := newTracer()
		if o, err = wf(half, tr); err != nil {
			return 1, err
		}
		o.violations = append(base.violations, o.violations...)
		o.attempted += base.attempted
		o.failed += base.failed
		path, err := tr.write(traceDir, name, p.seed)
		if err != nil {
			return 1, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
		layer := perLayerZero()
		for k, v := range o.layer {
			if _, known := layer[k]; !known {
				return 1, fmt.Errorf("workload %s reports undeclared per-layer metric %q", name, k)
			}
			layer[k] = metric{Value: v, Unit: layer[k].Unit}
		}
		overhead := 0.0
		sum := o.summarize()
		if sum.rate > 0 {
			overhead = (base.summarize().rate/sum.rate - 1) * 100
		}
		layer["e2e.latency_samples"] = metric{Value: float64(len(o.latMs)), Unit: "count"}
		layer["e2e.latency_tail_pct"] = metric{Value: sum.tailPct, Unit: "%"}
		layer["trace.overhead_pct"] = metric{Value: overhead, Unit: "%"}
		layer["trace.spans"] = metric{Value: float64(len(tr.spans)), Unit: "count"}
		metrics = layer
	}
	for _, v := range o.violations {
		fmt.Fprintln(os.Stderr, "perfbench: VIOLATION:", v)
	}
	if o.attempted < 1 {
		return 1, fmt.Errorf("workload %s attempted no operation", name)
	}
	res := result{
		Correct:   len(o.violations) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   metrics,
	}
	stamp := map[string]any{
		"workload": name,
		"seed":     p.seed,
		"trace":    traced,
		"host":     hostFingerprint(),
		"commit":   commit(),
		"source":   sourceDigest("."),
		"named":    o.named,
	}
	if err := printJSON(out, stamp); err != nil {
		return 1, err
	}
	if err := printJSON(out, res); err != nil {
		return 1, err
	}
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// endToEnd turns an outcome into the end-to-end metrics.
func endToEnd(o *outcome) map[string]metric {
	sum := o.summarize()
	return map[string]metric{
		"ops_per_s":       {sum.rate, "1/s"},
		"latency_p50_ms":  {sum.p50, "ms"},
		"latency_tail_ms": {sum.tail, "ms"},
		"heap_peak_mb":    {float64(o.heapPeak) / (1 << 20), "MB"},
		"setup_s":         {median(o.setupS), "s"},
	}
}

func workloadNames() []string {
	var names []string
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
