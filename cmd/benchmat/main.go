// Command benchmat runs the multicore scaling matrix: the engine and ingress
// micro-benchmarks swept over a GOMAXPROCS list (go test -cpu), with edges/s
// and speedup-vs-1-core derived per benchmark, appended as host- and
// date-stamped entries to BENCH_ENGINE.json and BENCH_INGRESS.json.
//
// Usage:
//
//	benchmat                            # full matrix at -cpu 1,2,4,8
//	benchmat -cpus 1,4 -benchtime 1x -check   # CI smoke: run once, parse, no JSON
//	benchmat -suite ingress -note "after window batching"
//
// Run from the repository root (the Makefile targets bench-scaling and
// bench-smoke do).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type suite struct {
	name  string
	pkg   string
	regex string
	out   string
}

var suites = []suite{
	{"engine", "./internal/engine", "BenchmarkEngineGather|BenchmarkEngineClusterBFS", "BENCH_ENGINE.json"},
	{"ingress", "./internal/partition", "BenchmarkIngress", "BENCH_INGRESS.json"},
}

func main() {
	cpus := flag.String("cpus", "1,2,4,8", "comma-separated GOMAXPROCS values (go test -cpu)")
	benchtime := flag.String("benchtime", "", "go test -benchtime value (empty = default)")
	note := flag.String("note", "", "free-form note stored with the JSON entry")
	which := flag.String("suite", "all", "engine, ingress, or all")
	check := flag.Bool("check", false, "verify the matrix runs and parses; do not write JSON")
	flag.Parse()

	cpuList, err := parseCPUs(*cpus)
	if err != nil {
		fatal(err)
	}
	for _, s := range suites {
		if *which != "all" && *which != s.name {
			continue
		}
		args := []string{"test", "-run", "^$", "-bench", s.regex, "-benchmem", "-cpu", *cpus}
		if *benchtime != "" {
			args = append(args, "-benchtime", *benchtime)
		}
		args = append(args, s.pkg)
		fmt.Fprintf(os.Stderr, "benchmat: go %s\n", strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fatal(fmt.Errorf("suite %s: %w", s.name, err))
		}
		ms, err := parseBenchOutput(buf.String())
		if err != nil {
			fatal(fmt.Errorf("suite %s: %w", s.name, err))
		}
		if len(ms) == 0 {
			fatal(fmt.Errorf("suite %s: no benchmark lines in go test output", s.name))
		}
		matrix := buildMatrix(ms)
		printMatrix(os.Stdout, s.name, cpuList, matrix)
		if *check {
			continue
		}
		e := entry{
			Date:   time.Now().Format("2006-01-02"),
			Note:   *note,
			Host:   hostString(),
			CPUs:   cpuList,
			Matrix: matrix,
		}
		if err := appendEntry(s.out, e); err != nil {
			fatal(fmt.Errorf("suite %s: %w", s.name, err))
		}
		fmt.Fprintf(os.Stderr, "benchmat: appended matrix entry to %s\n", s.out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmat:", err)
	os.Exit(1)
}

func parseCPUs(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -cpus entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// hostString labels the JSON entry with the CPU model (when /proc exposes
// one) and the machine's core count, matching the hand-written entries.
func hostString() string {
	model := "unknown CPU"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				model = strings.TrimSpace(value)
				break
			}
		}
	}
	return fmt.Sprintf("%s, NumCPU=%d", model, runtime.NumCPU())
}

func printMatrix(w *os.File, name string, cpus []int, matrix map[string]map[string]cell) {
	fmt.Fprintf(w, "\n%s matrix (edges/s by GOMAXPROCS, speedup vs 1 core):\n", name)
	names := make([]string, 0, len(matrix))
	for n := range matrix {
		names = append(names, n)
	}
	sortStrings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %s\n", n)
		for _, c := range cpus {
			cell, ok := matrix[n][strconv.Itoa(c)]
			if !ok {
				continue
			}
			line := fmt.Sprintf("    cpu=%d  %12.0f edges/s", c, cell.EdgesPerS)
			if cell.SpeedupVs1 != 0 {
				line += fmt.Sprintf("  %5.2fx", cell.SpeedupVs1)
			}
			fmt.Fprintln(w, line)
		}
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
