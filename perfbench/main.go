// Command perfbench is the repository's end-to-end benchmark. It drives the
// profile → model → predict → serve pipeline through the packages' public
// functions, checks every output, and prints one JSON result line.
//
// Usage (from the repository root, see run.sh):
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 15 --trace 0
//
// Workloads (each runs in its own process):
//
//	sweep-cold    every analysis from an empty run cache; the simulator dominates
//	analyze-warm  the non-NW analyses over a filled on-disk run cache; modeling dominates
//	serve-single  open-loop single-row predicts against bfserve defaults
//	serve-batch   batch predicts of fresh rows; the inference engine dominates
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// traced run reports the per-layer metrics instead. README.md lists what
// each metric means on each workload and which layer should move it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
)

// procs is the parallelism every workload uses: simulation workers, client
// connections and GOMAXPROCS. The benchmark host has two CPUs.
const procs = 2

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, printed on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"medape_pct.problem", "%"},
	{"medape_pct.hw", "%"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"slo_rps", "1/s"},
	{"rows_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// kernelNames are the simulator kernels whose host cost per launch is
// reported; variants (reduce0..6, transpose0..2, histogram0..1) fold into
// their family.
var kernelNames = []string{"needle", "matmul", "reduce", "transpose", "histogram"}

// perLayer are the metrics of a traced run, printed on every workload; a
// layer the workload does not exercise reports 0.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"gpusim.launches", "count"},
		{"gpusim.sim_cycles", "count"},
		{"gpusim.simulate_s", "s"},
	}
	for _, k := range kernelNames {
		m = append(m, metricSpec{"gpusim.host_us_per_launch." + k, "us"})
	}
	m = append(m,
		metricSpec{"profiler.collect_s", "s"},
		metricSpec{"runcache.misses", "count"},
		metricSpec{"runcache.mem_hits", "count"},
		metricSpec{"runcache.disk_hits", "count"},
		metricSpec{"runcache.bad_entries", "count"},
		metricSpec{"runcache.hit_rate", "ratio"},
		metricSpec{"runcache.hit_us", "us"},
		metricSpec{"core.analyze_s", "s"},
		metricSpec{"core.bottlenecks_s", "s"},
		metricSpec{"core.reduce_s", "s"},
		metricSpec{"core.scaler_s", "s"},
		metricSpec{"core.evaluate_s", "s"},
		metricSpec{"forest.pd_s", "s"},
		metricSpec{"core.pca_s", "s"},
		metricSpec{"core.hwscale_s", "s"},
		metricSpec{"share.gpusim", "ratio"},
		metricSpec{"share.modeling", "ratio"},
		metricSpec{"engine.us_per_row.single", "us"},
		metricSpec{"engine.us_per_row.batch", "us"},
		metricSpec{"share.engine", "ratio"},
		metricSpec{"serve.stage_ms.queue", "ms"},
		metricSpec{"serve.stage_ms.coalesce_wait", "ms"},
		metricSpec{"serve.stage_ms.inference", "ms"},
		metricSpec{"serve.unattributed_ms", "ms"},
		metricSpec{"serve.cache_hit_ratio", "ratio"},
		metricSpec{"serve.shed", "count"},
		metricSpec{"serve.p99_ms", "ms"},
		metricSpec{"serve.p99_samples", "count"},
		metricSpec{"loadgen.late_ms.p99", "ms"},
		metricSpec{"loadgen.late_ms.max", "ms"},
		metricSpec{"loadgen.sent", "count"},
		metricSpec{"loadgen.succeeded", "count"},
		metricSpec{"loadgen.failed", "count"},
		metricSpec{"trace.uncovered_s", "s"},
		metricSpec{"trace.overhead_s", "s"},
		metricSpec{"trace.spans", "count"},
	)
	return m
}()

// settings is one invocation's parameters.
type settings struct {
	seed    uint64
	seconds float64
	traced  bool
	size    sizing
}

// outcome is what a workload measured: metric values by name (units come
// from the spec tables), plus operations attempted and failed. A failed
// correctness check counts as a failed operation.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// check counts one verified operation, failing it (with a note on stderr)
// when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(settings) (*outcome, error){
	"sweep-cold":   runSweepCold,
	"analyze-warm": runAnalyzeWarm,
	"serve-single": runServeSingle,
	"serve-batch":  runServeBatch,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "sweep-cold, analyze-warm, serve-single or serve-batch")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {sweep-cold,analyze-warm,serve-single,serve-batch}, --seconds > 0, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(min(procs, runtime.NumCPU()))
	out, err := fn(settings{seed: *seed, seconds: *seconds, traced: *trace == 1, size: fullSize})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
	} else {
		out.values["peak_rss_mb"] = peakRSSMB()
	}
	line, err := encodeResult(out, specs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// encodeResult renders the result line with exactly the metrics in specs;
// a metric the workload did not set is an error, not a silent zero.
func encodeResult(out *outcome, specs []metricSpec) ([]byte, error) {
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	for _, s := range specs {
		v, ok := out.values[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return json.Marshal(res)
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
