// Command perfbench is the repository's loop-step benchmark. It drives
// the paper's pay-as-you-go step — Suggest the max-information-gain
// correspondence, take the expert's answer, Assert it (view maintenance
// plus refill) — end to end through the public session surfaces, on
// networks generated from a seed, checks the outputs, and prints one
// JSON result line:
//
//	bash perfbench/run.sh --workload solo-dense --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// sessions with spans at every layer boundary and prints the per-layer
// metrics. NOTES.md describes the workloads, the metrics and the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef is one reported metric. The end-to-end and per-layer lists
// mirror BENCHMARK.json (a test keeps the two in step).
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"steps_per_s", "1/s"},
	{"step_p50_ms", "ms"},
	{"step_p99_ms", "ms"},
	{"instantiate_ms", "ms"},
	{"reopen_ms", "ms"},
	{"effort_h10", "fraction"},
	{"match_f1", "fraction"},
	{"heap_mb_per_session", "MB"},
	{"alloc_kb_per_step", "KB"},
}

var perLayer = []metricDef{
	{"core.rank_ms", "ms"},
	{"core.apply_ms", "ms"},
	{"core.record_us", "us"},
	{"core.refills_per_step", "1/step"},
	{"core.exact_share", "fraction"},
	{"sampling.emissions_per_step", "1/step"},
	{"sampling.emit_us", "us"},
	{"sampling.distinct_per_emission", "fraction"},
	{"constraints.maximize_us", "us"},
	{"constraints.repair_us", "us"},
	{"schemanet.suggest_ms", "ms"},
	{"schemanet.assert_ms", "ms"},
	{"schemanet.assert_refill_ms", "ms"},
	{"schemanet.assert_plain_ms", "ms"},
	{"schemanet.self_ms", "ms"},
	{"schemanet.collisions_per_step", "1/step"},
	{"wal.fsyncs_per_step", "1/step"},
	{"wal.fsync_ms", "ms"},
	{"wal.write_kb_per_step", "KB"},
	{"wal.write_us", "us"},
	{"wal.renames", "1/step"},
	{"wal.read_kb", "KB"},
	{"store.reopens", "count"},
	{"store.evictions", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.residual_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what one invocation asks of a workload.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	tmp     string // scratch root for durable stores
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's networks and session seeds derive from")
	seconds := fs.Float64("seconds", 10, "how long to drive units; unit i's inputs depend only on the seed")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	tmp := fs.String("tmp", ".bench_build/tmp", "scratch directory for durable stores (removed before exit)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %v\n", *seconds)
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, tmp: *tmp}
	res, notes, err := w.measure(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench: host %s\n", hostLine())
	for _, n := range notes {
		fmt.Fprintf(stdout, "perfbench: %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// hostLine records what the numbers were measured on.
func hostLine() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

// cpuModel reads the CPU model name from /proc/cpuinfo where the host
// has one.
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
