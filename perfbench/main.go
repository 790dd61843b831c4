// Command perfbench is the repository's benchmark. It runs one named
// workload against the system built from this tree, checks the
// outputs, and prints every metric by name with its unit.
//
//	perfbench -root . -workload daemon-batch -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it measures the end-to-end metrics with tracing off;
// with -trace 1 it makes a separate traced run and prints the
// per-layer breakdown instead, writing the spans it kept to
// <root>/.bench_build/work/spans-<workload>-<seed>.jsonl. The last line of standard output is one
// JSON object {"correct","attempted","failed","metrics"}; the line
// before it is a detailed report carrying, for every metric, its
// median, quartiles and sample count, plus the machine and build the
// run measured. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, reported by
// every workload with tracing off.
var endToEnd = []metricDef{
	{"throughput_pps", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"hl_accuracy", "ratio"},
	{"nl_accuracy", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload reports 0 for a
// layer it does not touch or cannot time from outside (layers.json
// names the latter under not_measured_on).
var perLayer = []metricDef{
	{"error_rate", "ratio"},
	{"commit_p50_us", "us"},
	{"commit_p99_us", "us"},
	{"ssdcheckd.roundtrip_us", "us"},
	{"ssdcheckd.decode_us", "us"},
	{"ssdcheckd.encode_us", "us"},
	{"ssdcheckd.http_self_us", "us"},
	{"ssdcheckd.req_bytes_per_pred", "bytes"},
	{"ssdcheckd.resp_bytes_per_pred", "bytes"},
	{"fleet.submit_us", "us"},
	{"fleet.self_ns_per_pred", "ns"},
	{"fleet.ingress_wait_p50_us", "us"},
	{"fleet.ingress_wait_p99_us", "us"},
	{"fleet.fallback_share", "ratio"},
	{"fleet.retries_per_pred", "ratio"},
	{"core.predict_ns", "ns"},
	{"core.observe_ns", "ns"},
	{"ssd.read_ns", "ns"},
	{"ssd.write_ns", "ns"},
	{"extract.diagnose_ms", "ms"},
	{"cluster.submit_us", "us"},
	{"cluster.tick_service_us", "us"},
	{"cluster.tick_late_p99_us", "us"},
	{"cluster.replication_lag_p99", "entries"},
	{"cluster.log_entries", "count"},
	{"cluster.log_bytes_per_entry", "bytes"},
	{"cluster.restart_ms", "ms"},
	{"cluster.elections", "count"},
	{"cluster.fencing_rejections", "count"},
	{"bench.unaccounted_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
}

// config is one invocation's settings.
type config struct {
	Workload string
	Seed     uint64
	Length   time.Duration // measured load per run
	Trace    bool
	Root     string // repository checkout
	Work     string // working directory inside the checkout
	Daemon   string // ssdcheckd binary
}

// spansPath is where a traced run writes the spans it kept.
func (c config) spansPath() string {
	return filepath.Join(c.Work, fmt.Sprintf("spans-%s-%d.jsonl", c.Workload, c.Seed))
}

// windows is how many equal slices a load phase is cut into; each
// end-to-end load metric is the median of its per-window values,
// which keeps one noisy stretch from moving a run's figure.
const windows = 10

// warmup is the untimed load every run serves before measuring, so
// connections, heaps and lazily built state are in place.
const warmup = time.Second

// setupRepeats is how many times a run sets the system up; setup_s
// is their median.
const setupRepeats = 5

// clients is the closed-loop client count of the two-client
// workloads: no more than the two cores the benchmark is sized for.
const clients = 2

// stat is one metric's value with the distribution behind it.
type stat struct {
	Value float64 `json:"value"`
	summary
}

// outcome is what a workload run produced.
type outcome struct {
	Attempted int64
	Failed    int64
	Metrics   map[string]stat
	Problems  []string
}

func newOutcome() *outcome { return &outcome{Metrics: make(map[string]stat)} }

func (o *outcome) set(name string, v float64, s summary) {
	o.Metrics[name] = stat{Value: v, summary: s}
}

// setN records a single measured value carrying n samples.
func (o *outcome) setN(name string, v float64, n int) {
	o.set(name, v, summary{Median: v, Q1: v, Q3: v, N: n})
}

// problem records a failed output check.
func (o *outcome) problem(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// addPhase records the end-to-end metrics one untraced load phase
// yields: throughput per window, call-latency percentiles over every
// call, and prediction accuracy.
func (o *outcome) addPhase(p phase) {
	preds, failed := p.attempted()
	o.Attempted += preds
	o.Failed += failed

	thr := summarize(p.throughput())
	o.set("throughput_pps", thr.Median, thr)
	if n := p.minWindowCalls(); tailPercentile(n) < 99 {
		o.problem("a window holds only %d calls: p99 needs %d beyond it (highest supported percentile %v)", n, minBeyond, tailPercentile(n))
	}
	s50 := p.latencyUS(50)
	o.set("latency_p50_us", s50.Median, s50)
	s99 := p.latencyUS(99)
	o.set("latency_p99_us", s99.Median, s99)
	o.setN("hl_accuracy", p.hlAccuracy(), int(p.obsHL))
	o.setN("nl_accuracy", p.nlAccuracy(), int(p.obsNL))
	if failed > 0 {
		o.problem("%d of %d predictions failed", failed, preds)
	}
}

// warm accounts for a warm-up phase: its predictions count as
// attempted, and any failure fails the run.
func (o *outcome) warm(p phase) {
	preds, failed := p.attempted()
	o.Attempted += preds
	o.Failed += failed
	if failed > 0 {
		o.problem("warm-up: %d of %d predictions failed", failed, preds)
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run: daemon-batch, embedded-single or cluster-durable")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 10, "measured load per run, in seconds")
	traceFlag := flag.Int("trace", 0, "1 makes a traced run and reports the per-layer metrics")
	root := flag.String("root", ".", "repository checkout, with ssdcheckd built into <root>/.bench_build")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unexpected arguments: %s\n", strings.Join(flag.Args(), " "))
		os.Exit(2)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		Workload: *workload,
		Seed:     *seed,
		Length:   time.Duration(*seconds) * time.Second,
		Trace:    *traceFlag == 1,
		Root:     *root,
		Work:     filepath.Join(*root, ".bench_build", "work"),
		Daemon:   filepath.Join(*root, ".bench_build", "ssdcheckd"),
	}
	os.Exit(run(cfg))
}

var workloads = map[string]func(config) (*outcome, error){
	"daemon-batch":    runDaemon,
	"embedded-single": runEmbedded,
	"cluster-durable": runCluster,
}

func run(cfg config) int {
	fn, ok := workloads[cfg.Workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want daemon-batch, embedded-single or cluster-durable)\n", cfg.Workload)
		return 2
	}
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	steal0, total0 := cpuSteal()
	out, err := fn(cfg)
	steal1, total1 := cpuSteal()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 1
	}

	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	detail := make(map[string]any, len(defs))
	values := make(map[string]any, len(defs))
	for _, d := range defs {
		st, ok := out.Metrics[d.Name]
		switch {
		case !ok && cfg.Trace:
			st = stat{} // layer not touched, or not timed, on this workload
		case !ok:
			out.problem("metric %s not measured", d.Name)
			continue
		}
		if !finite(st.Value, st.Median, st.Q1, st.Q3) {
			out.problem("metric %s is not finite: %+v", d.Name, st)
			continue
		}
		detail[d.Name] = map[string]any{"value": st.Value, "unit": d.Unit,
			"median": st.Median, "q1": st.Q1, "q3": st.Q3, "n": st.N}
		values[d.Name] = map[string]any{"value": st.Value, "unit": d.Unit}
	}
	if out.Attempted == 0 {
		out.problem("no predictions attempted")
	}
	correct := len(out.Problems) == 0
	if !correct {
		// A run that fails a check is reported as failed, never as a
		// number.
		values = map[string]any{}
		for _, p := range out.Problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
	}
	report := map[string]any{
		"workload": cfg.Workload,
		"seed":     cfg.Seed,
		"seconds":  cfg.Length.Seconds(),
		"trace":    cfg.Trace,
		"env": map[string]any{
			"nproc":         runtime.NumCPU(),
			"gomaxprocs":    runtime.GOMAXPROCS(0),
			"go":            runtime.Version(),
			"commit":        commit(cfg.Root),
			"runs":          1,
			"windows":       windows,
			"setup_repeats": setupRepeats,
			// Share of CPU time the hypervisor withheld during the run:
			// on a shared VM, the first suspect when a run reads slow.
			"cpu_steal_pct": 100 * ratioF(int64(steal1-steal0), int64(total1-total0)),
		},
		"metrics":  detail,
		"problems": out.Problems,
	}
	printJSON(map[string]any{"report": report})
	printJSON(map[string]any{
		"correct":   correct,
		"attempted": out.Attempted,
		"failed":    out.Failed,
		"metrics":   values,
	})
	if !correct {
		return 1
	}
	return 0
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// cpuSteal reads the machine-wide steal and total CPU time, in
// jiffies, from /proc/stat; zeros when it is unavailable.
func cpuSteal() (steal, total uint64) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user … steal
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// commit names the measured tree's revision, or "unknown" outside a
// git checkout.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
