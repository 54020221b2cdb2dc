// Command perfbench is the repository benchmark: latency–recall pairs for
// RoundTripRank queries on four seeded workloads, measured end to end and,
// in a separate traced run, layer by layer from the walk kernels to the HTTP
// hop.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload bibnet-online --seed 1 --seconds 10 --trace 0
//
// The workloads, their parameters and the per-layer prediction table live in
// spec.json, which the binary embeds. An untraced run (--trace 0) reports the
// end-to-end metrics; a traced run (--trace 1) records a span around every
// call the benchmark makes into a layer and reports the per-layer metrics.
// Every answer is checked against an exact oracle. A wrong answer sets
// "correct" to false; it and every errored or refused operation count as
// failed, and any failure makes the command exit 1. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// report is what one workload run produces.
type report struct {
	// failed counts operations that errored, were refused or answered
	// wrongly; wrong counts the wrong answers (failed correctness checks)
	// among them.
	attempted, failed, wrong int
	// problems lists every failed correctness check, one line each.
	problems []string
	metrics  map[string]metric
	// notes are extra validity lines printed before the result.
	notes []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric measured over n samples; its unit comes from the
// metric tables.
func (r *report) set(name string, value float64, n int) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: unknown metric " + name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit, N: n}
}

// fail records one failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// wrongAnswer records one failed correctness check; it counts as a failed
// operation too.
func (r *report) wrongAnswer(format string, args ...any) {
	r.wrong++
	r.fail(format, args...)
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	capacity int
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (see spec.json)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: query picks, write batches and arrival times derive from it")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured duration; runs extend to whole query passes and the minimum read count")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.IntVar(&o.capacity, "capacity", 0, "bibnet-serve only: measure closed-loop capacity with this many clients instead of running the open loop")
	flag.Parse()
	o.trace = trace == 1

	s, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	w, ok := s.Workloads[o.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(s.names(), ", ")))
	}
	if o.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}

	printJSONLine("host", hostRecord())
	printJSONLine("workload", map[string]any{"name": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace, "spec": s.raw[o.workload]})

	ctx := context.Background()
	var rep *report
	switch w.Path {
	case "online", "exact":
		rep, err = runInProcess(ctx, s, w, o)
	case "remote":
		rep, err = runServe(ctx, s, w, o)
	default:
		err = fmt.Errorf("workload %s: unknown path %q", o.workload, w.Path)
	}
	if err != nil {
		fatal(err)
	}
	if o.capacity > 0 {
		return
	}

	want := endToEnd
	if o.trace {
		want = perLayer
	}
	out := map[string]metric{}
	for _, def := range want {
		name := def.name
		m, ok := rep.metrics[name]
		switch {
		case !ok && o.trace:
			// The workload does not call this layer: zero work, no samples.
			m = metric{Unit: def.unit}
		case !ok:
			fatal(fmt.Errorf("workload %s did not produce metric %s", o.workload, name))
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			if rep.failed == 0 {
				fatal(fmt.Errorf("workload %s: metric %s is %v", o.workload, name, m.Value))
			}
			// A failed run may have no successful sample to measure; it
			// still reports its failures (and exits 1).
			m.Value = 0
		}
		out[name] = m
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	fmt.Printf("operations: attempted %d, failed %d (failed_frac %.6f)\n",
		rep.attempted, rep.failed, float64(rep.failed)/float64(max(rep.attempted, 1)))
	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out[name]
		fmt.Printf("  %-30s %16.6f %-8s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	for _, p := range rep.problems {
		fmt.Println("FAILED:", p)
	}
	correct := rep.wrong == 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metric sets of untraced and traced runs;
// BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"reads_per_s", "1/s"}, {"read_p50_ms", "ms"}, {"read_p95_ms", "ms"},
	{"recall_at_10", "ratio"}, {"heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"walk.frank_ms", "ms"}, {"walk.trank_ms", "ms"}, {"core.combine_topn_ms", "ms"},
	{"engine.overhead_ms", "ms"}, {"engine.allocs_per_read", "count"},
	{"topk.search_ms", "ms"}, {"topk.candidate_ms", "ms"}, {"topk.rounds", "count"},
	{"topk.touched", "count"}, {"topk.fseen", "count"}, {"topk.tseen", "count"},
	{"topk.converged_frac", "ratio"}, {"topk.certified_k", "count"}, {"topk.pool_peak", "count"},
	{"bounds.stage1_ms", "ms"}, {"bounds.stage2_ms", "ms"}, {"bounds.stage2_share", "ratio"},
	{"bca.pushes", "count"}, {"bca.push_ms", "ms"},
	{"rowserve.fetched_per_read", "count"}, {"rowserve.rpcs_per_read", "count"}, {"rowserve.hit_rate", "ratio"},
	{"rowserve.evictions", "count"}, {"rowserve.retries", "count"}, {"rowserve.overhead_ms", "ms"},
	{"serve.hop_ms", "ms"}, {"serve.shed", "count"}, {"serve.rollover_retries", "count"},
	{"serve.write_p50_ms", "ms"}, {"serve.write_p90_ms", "ms"},
	{"load.late_p95_ms", "ms"}, {"load.backlog_end", "count"},
	{"graph.commit_ms", "ms"}, {"distributed.redeploy_ms", "ms"},
	{"distributed.stripes_shipped", "count"}, {"distributed.stripes_retagged", "count"},
	{"graph.flat_bytes_per_edge", "B/edge"}, {"graph.packed_bytes_per_edge", "B/edge"},
	{"trace.overhead_ms", "ms"},
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// hostRecord describes the machine and build a result was measured on.
func hostRecord() map[string]any {
	return map[string]any{
		"commit":        envOr("RTBENCH_COMMIT", "unknown"),
		"source_digest": envOr("RTBENCH_SOURCE_DIGEST", "unknown"),
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printJSONLine(tag string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s %s\n", tag, data)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// traceDir is where traced runs write their spans, relative to the working
// directory (the checkout root).
const traceDir = ".bench_build/traces"

// writeTrace writes the run's spans as JSON lines.
func writeTrace(tr *tracer, o options) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	return path, tr.writeFile(path)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
