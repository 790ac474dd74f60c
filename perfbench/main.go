// Command perfbench is the repository's end-to-end benchmark. It drives the
// job service and the evolving-graph path on inputs derived from a seed,
// checks every simulated output against an independent recomputation, and
// prints the metrics BENCHMARK.json names, ending with one JSON line.
//
//	bash perfbench/run.sh --workload jobs-warm --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the traced variant and reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"ops_per_s", "ops/s"}, {"op_p50_ms", "ms"}, {"op_p90_ms", "ms"},
	{"peak_rss_mb", "MB"}, {"ok_frac", "ratio"},
}

var perLayer = []metricDef{
	{"gen.generate_ms", "ms"}, {"core.profile_ms", "ms"},
	{"apps.triangle_count.run_ms", "ms"}, {"apps.pagerank.run_ms", "ms"}, {"apps.coloring.run_ms", "ms"},
	{"apps.connected_components.run_ms", "ms"}, {"apps.bfs.run_ms", "ms"}, {"apps.sssp.run_ms", "ms"},
	{"apps.pagerank_resume.run_ms", "ms"}, {"apps.connected_components_resume.run_ms", "ms"},
	{"engine.gathers_per_s", "1/s"}, {"engine.supersteps", "count"}, {"engine.gathers", "count"},
	{"engine.ingress_ms", "ms"},
	{"partition.apply_ms", "ms"}, {"partition.amend_ms", "ms"}, {"partition.replication_factor", "ratio"},
	{"workload.cache_hit_ratio", "ratio"}, {"workload.cache_mb", "MB"}, {"workload.ingress_wall_ms", "ms"},
	{"workload.fingerprint_ms", "ms"}, {"workload.place_evolved_ms", "ms"}, {"workload.amend_ratio", "ratio"},
	{"graph.delta_apply_ms", "ms"},
	{"service.submit_us", "us"}, {"service.journal_append_us", "us"}, {"service.journal_bytes_per_job", "bytes"},
	{"service.queue_wait_p50_ms", "ms"}, {"service.queue_wait_p90_ms", "ms"},
	{"service.heap_kb_per_job", "KB"}, {"service.failed_attempts", "count"},
	{"runtime.alloc_mb_per_op", "MB"}, {"runtime.gc_cpu_frac", "ratio"},
	{"graph.self_ms_per_op", "ms"}, {"partition.self_ms_per_op", "ms"}, {"engine.self_ms_per_op", "ms"},
	{"apps.self_ms_per_op", "ms"}, {"workload.self_ms_per_op", "ms"}, {"service.self_ms_per_op", "ms"},
	{"trace.untraced_ops_per_s", "ops/s"}, {"trace.traced_ops_per_s", "ops/s"},
	{"trace.direct_ops_per_s", "ops/s"}, {"trace.overhead_frac", "ratio"},
}

var workloads = []string{"jobs-warm", "jobs-cold", "evolve-chain"}

// options are the command line plus the run's scratch locations.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	build    string // <root>/.bench_build
	tmp      string // per-run scratch directory under build
}

func (o options) dur() time.Duration { return time.Duration(o.seconds) * time.Second }

// outcome is what a workload run measured and checked.
type outcome struct {
	setups            []interval // one per set-up
	peakRSS           float64    // MB
	phaseStart        time.Time  // start of the timed phase
	samples           []opSample // completed ops of the timed phase
	busyRate          bool       // ops_per_s divides by op time, not wall time
	attempted, failed int
	problems          []string
	verified          int
	simDigest         uint64
	supersteps        int
	gathers           float64
	replication       float64
	layerRows         map[string]float64
}

// wrong records a failed output check.
func (o *outcome) wrong(msg string) {
	o.problems = append(o.problems, msg)
}

// interval is a stretch of wall time.
type interval struct{ from, to time.Time }

// Untraced runs set up at least minSetups times and for at least
// minSetupTime (at most maxSetups times), keep the last set-up for the timed
// phase, and report the median set-up time.
const (
	minSetups    = 3
	maxSetups    = 64
	minSetupTime = 2 * time.Second
)

// repeatSetup runs setup repeatedly, releasing each result but the last,
// and returns the last with every set-up's interval.
func repeatSetup[T any](setup func() (T, error), release func(T)) (T, []interval, error) {
	var (
		last  T
		ivs   []interval
		begin = time.Now()
	)
	for len(ivs) < minSetups || (time.Since(begin) < minSetupTime && len(ivs) < maxSetups) {
		if len(ivs) > 0 {
			release(last)
			runtime.GC()
		}
		t0 := time.Now()
		r, err := setup()
		if err != nil {
			var zero T
			return zero, nil, err
		}
		ivs = append(ivs, interval{t0, time.Now()})
		last = r
	}
	return last, ivs, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "jobs-warm", fmt.Sprintf("workload: one of %v", workloads))
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input is derived from")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	root := fs.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, o.workload) || o.seconds < 1 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			o.workload, o.seconds, traceFlag)
		return 2
	}
	o.trace = traceFlag == 1
	o.build = filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(o.build, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(o.build, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	o.tmp = tmp

	var probe *hostProbe
	if !o.trace {
		probe = startProbe()
	}
	var out *outcome
	if o.workload == "evolve-chain" {
		out, err = runEvolve(o)
	} else {
		out, err = runJobs(jobsConfigs[o.workload], o)
	}
	if probe != nil {
		probe.stop()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	return report(o, out, probe, stdout, stderr)
}

// report prints every metric by name with its unit, the output gate's
// verdict and sim_digest, then the JSON result line. End-to-end timings are
// scaled to the reference host speed by probe; the unscaled wall-clock
// figures are printed beside them.
func report(o options, out *outcome, probe *hostProbe, stdout, stderr io.Writer) int {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	var (
		rate, p50, p90, scale float64
		wallSetups, setups    []float64
		setupScales           []float64
		n                     int
	)
	failedFrac := 0.0
	if out.attempted > 0 {
		failedFrac = float64(out.failed) / float64(out.attempted)
	}
	if o.trace {
		rows := out.layerRows
		rows["engine.supersteps"] = float64(out.supersteps)
		rows["engine.gathers"] = out.gathers
		rows["partition.replication_factor"] = out.replication
		for _, m := range perLayer {
			metrics[m.name] = metric{rows[m.name], m.unit}
		}
	} else {
		rate, p50, p90, n = overRun(out.samples, o.dur().Seconds(), out.busyRate)
		scale = probe.scale(out.phaseStart, out.phaseStart.Add(o.dur()))
		for _, iv := range out.setups {
			wall, s := iv.to.Sub(iv.from).Seconds(), probe.scale(iv.from, iv.to)
			wallSetups = append(wallSetups, wall)
			setupScales = append(setupScales, s)
			setups = append(setups, wall*s)
		}
		vals := map[string]float64{
			"setup_s":     quantile(setups, 0.5),
			"ops_per_s":   rate / scale,
			"op_p50_ms":   p50 * scale * 1e3,
			"op_p90_ms":   p90 * scale * 1e3,
			"peak_rss_mb": out.peakRSS,
			"ok_frac":     1 - failedFrac,
		}
		for _, m := range endToEnd {
			metrics[m.name] = metric{vals[m.name], m.unit}
		}
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, m := range defs {
		fmt.Fprintf(stdout, "  %-42s %14.6g %s\n", m.name, metrics[m.name].Value, m.unit)
	}
	if !o.trace {
		fmt.Fprintf(stdout, "  op_p90_ms samples: %d ops, so %d beyond p90\n", n, n/10)
		fmt.Fprintf(stdout, "  setup_s samples: %d set-ups, %.4g to %.4g s\n",
			len(setups), slices.Min(setups), slices.Max(setups))
		fmt.Fprintf(stdout, "  host speed scale: timed phase %.4g, set-ups %.4g to %.4g\n",
			scale, slices.Min(setupScales), slices.Max(setupScales))
		fmt.Fprintf(stdout, "  unscaled wall clock: setup_s %.6g, ops_per_s %.6g, op_p50_ms %.6g, op_p90_ms %.6g\n",
			quantile(wallSetups, 0.5), rate, p50*1e3, p90*1e3)
	}
	fmt.Fprintf(stdout, "  failed_frac %g (%d of %d attempted)\n", failedFrac, out.failed, out.attempted)
	fmt.Fprintf(stdout, "  sim_digest %016x\n", out.simDigest)
	correct := len(out.problems) == 0
	for i, p := range out.problems {
		if i == 10 {
			fmt.Fprintf(stderr, "perfbench: ... %d more wrong outputs\n", len(out.problems)-i)
			break
		}
		fmt.Fprintln(stderr, "perfbench: wrong output:", p)
	}
	fmt.Fprintf(stdout, "  output gate: %d checks, %s\n", out.verified, map[bool]string{true: "pass", false: "FAIL"}[correct])
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(out.attempted, 1), out.failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}
