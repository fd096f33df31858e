// Command perfbench measures the simulator on real cores, end to end and
// layer by layer, by timing calls into the public functions of its modules
// from outside. It runs one workload per invocation:
//
//	perfbench --workload gate-iir --seed 1 --seconds 20 --trace 0
//
// Workloads are gate-iir, fsm-dynamic and serve-vhdl; README.md says why
// each exists and which layer metric should move which end-to-end metric.
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 the run also records spans around
// every call and reports per-layer metrics instead. Every workload reports
// every metric BENCHMARK.json declares. Every timed
// iteration's output is checked outside the timed intervals; a failed check
// counts the operation as failed and the command exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// units of every metric this benchmark can report. Per-layer counts are
// labelled exact (the same on every iteration and every run of the same
// workload, so a difference means nondeterminism or a changed workload) or
// varying (they depend on thread interleaving).
var units = map[string]string{
	"setup_s":          "s",
	"seq_events_per_s": "1/s",
	"par_events_per_s": "1/s",
	"live_heap_mb":     "MB",
	"sessions_per_s":   "1/s",
	"ttfb_p50_ms":      "ms",
	"ttfb_p90_ms":      "ms",
	"ttlb_p50_ms":      "ms",
	"ttlb_p90_ms":      "ms",

	"circuits.build_ms":       "ms",
	"kernel.build_ms":         "ms",
	"pdes.shard_ms":           "ms",
	"seq.ns_per_event":        "ns",
	"seq.allocs_per_event":    "count",
	"seq.bytes_per_event":     "B",
	"seq.events":              "count",
	"par.ns_per_event":        "ns",
	"par.allocs_per_event":    "count",
	"par.bytes_per_event":     "B",
	"par.events_executed":     "count",
	"par.efficiency":          "ratio",
	"par.gvt_rounds":          "count",
	"par.ms_per_gvt_round":    "ms",
	"par.null_msgs":           "count",
	"par.remote_msgs":         "count",
	"par.rollbacks":           "count",
	"par.rolled_back":         "count",
	"par.state_saves":         "count",
	"par.antis":               "count",
	"par.speedup":             "ratio",
	"trace.lines_ns_per_line": "ns",
	"trace.entries":           "count",
	"vhdl.parse_us_per_kb":    "us",
	"vhdl.elab_ms":            "ms",
	"lint.analyze_ms":         "ms",
	"kernel.clone_ms":         "ms",
	"server.submit_ms":        "ms",
	"server.first_byte_ms":    "ms",
	"server.stream_ms":        "ms",
	"server.cache_hit_ratio":  "ratio",
	"server.rejected":         "count",
	"server.failed":           "count",
	"span.count":              "count",
	"span.overhead_pct":       "%",
}

// endToEndNames and perLayerNames are the metrics BENCHMARK.json declares,
// which every workload reports: the result line of an untraced run carries
// exactly the first, that of a traced run exactly the second. Figures that
// only some workloads have (front end, server, sharding, parallel
// allocations) are printed on the # lines before it.
var (
	endToEndNames = []string{
		"setup_s", "seq_events_per_s", "par_events_per_s", "live_heap_mb",
		"sessions_per_s", "ttfb_p50_ms", "ttfb_p90_ms", "ttlb_p50_ms", "ttlb_p90_ms",
	}
	perLayerNames = []string{
		"kernel.build_ms",
		"seq.ns_per_event", "seq.allocs_per_event", "seq.bytes_per_event", "seq.events",
		"par.ns_per_event", "par.events_executed", "par.efficiency",
		"par.gvt_rounds", "par.ms_per_gvt_round", "par.null_msgs", "par.remote_msgs",
		"par.rollbacks", "par.rolled_back", "par.antis", "par.speedup",
		"trace.lines_ns_per_line", "trace.entries",
		"self_pct.setup", "self_pct.kernel.build", "self_pct.pdes.run_seq", "self_pct.trace.lines",
		"span.count", "span.overhead_pct",
	}
)

// report collects one run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	e2e, layers       map[string]metric
	exact             map[string]bool
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}, exact: map[string]bool{}}
}

// fail marks one operation as failed, with the reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) endToEnd(name string, v float64) { r.e2e[name] = metric{v, unitOf(name)} }

// layer reports a per-layer metric; one without enough samples to compute
// (a NaN) is left out.
func (r *report) layer(name string, v float64) {
	if !math.IsNaN(v) {
		r.layers[name] = metric{v, unitOf(name)}
	}
}

// exactCount reports a per-layer count that must not vary, and fails the
// run when the samples disagree.
func (r *report) exactCount(name string, samples []float64) {
	if len(samples) == 0 {
		return
	}
	for _, s := range samples[1:] {
		if s != samples[0] {
			r.fail("exact count %s varies within the run: %v", name, samples)
			break
		}
	}
	r.exact[name] = true
	r.layer(name, samples[0])
}

func unitOf(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	if len(name) > 9 && name[:9] == "self_pct." {
		return "%"
	}
	panic("perfbench: metric without a unit: " + name)
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// liveHeapMB forces collection and returns the heap still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC() // a second cycle empties sync.Pools the first one spared
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func main() {
	workload := flag.String("workload", "", "gate-iir, fsm-dynamic or serve-vhdl")
	seed := flag.Int64("seed", 1, "input seed (serve-vhdl corpus and mix; the engine workloads use the paper's fixed stimulus)")
	secs := flag.Int("seconds", 20, "how long the measured loop runs")
	traced := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	spans := flag.String("spans", ".bench_build/spans", "where the traced run writes its spans")
	flag.Parse()
	if *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	var tr *tracer
	if *traced == 1 {
		tr = newTracer()
	}
	budget := time.Duration(*secs) * time.Second

	var rep *report
	var err error
	switch *workload {
	case "gate-iir":
		rep, err = runEngine(gateIIR(), nproc, budget, tr)
	case "fsm-dynamic":
		rep, err = runEngine(fsmDynamic(), nproc, budget, tr)
	case "serve-vhdl":
		rep, err = runServe(*seed, budget, tr)
	default:
		err = fmt.Errorf("unknown --workload %q (gate-iir, fsm-dynamic or serve-vhdl)", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	metrics, declared := rep.e2e, endToEndNames
	if tr != nil {
		tr.addSelfTimes(rep)
		metrics, declared = rep.layers, perLayerNames
		path, err := tr.write(*spans, *workload, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(2)
		}
		fmt.Printf("# spans written to %s\n", path)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d gomaxprocs=%d workers=%d attempted=%d failed=%d\n",
		*workload, *seed, nproc, nproc, rep.attempted, rep.failed)
	inResult := map[string]bool{}
	for _, n := range declared {
		inResult[n] = true
	}
	for _, n := range names {
		label := ""
		if tr != nil {
			label = "varying"
			if rep.exact[n] {
				label = "exact"
			}
		}
		if !inResult[n] {
			label += " (not in the result line)"
		}
		fmt.Printf("# %-26s %16.6g %-6s %s\n", n, metrics[n].Value, metrics[n].Unit, label)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	correct := rep.failed == 0
	result := map[string]metric{}
	for _, n := range declared {
		m, ok := metrics[n]
		if !ok && correct {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *workload, n)
			os.Exit(2)
		}
		if ok {
			result[n] = m
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, result})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !correct {
		os.Exit(1)
	}
}
