// Command perfbench is the benchmark of the Hyper-M serving stack. For each
// named workload it boots an in-process cluster of serving nodes on TCP
// loopback, drives it open-loop (latencies timed from each op's scheduled
// send) and closed-loop (throughput), checks every answer against the
// simulator oracle (core.System) and brute force, and prints the end-to-end
// metrics by name and unit. A traced run (--trace 1) instead prints
// per-layer metrics, timed from outside around calls into each layer.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload lookup --seed 1 --seconds 25 --trace 0
//	perfbench --workload all --seed 1 --seconds 25     # every workload, one table
//	perfbench --workload scan --seed 1 --repeat 5      # steadiness report
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name (lookup, scan, ingest) or all")
	seed := flag.Int64("seed", 1, "traffic seed: the op stream, written items and arrival schedule derive from it")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run, printing per-layer metrics instead of end-to-end ones")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "directory the traced run writes its spans to")
	repeat := flag.Int("repeat", 0, "steadiness report: run the workload this many times with seeds seed, seed+1, ...")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *repeat < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1, --trace 0 or 1, --repeat >= 0")
		return 2
	}
	args := func(w string, s int64) []string {
		return []string{"--workload", w, "--seed", strconv.FormatInt(s, 10), "--seconds", strconv.Itoa(*seconds),
			"--trace", strconv.Itoa(*trace), "--trace-dir", *traceDir}
	}
	switch {
	case *name == "all":
		return runAll(args, *seed)
	case *repeat > 0:
		return repeatReport(args, *name, *seed, *repeat)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := runWorkload(w, *seed, *seconds, *trace == 1, *traceDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	printMetrics(res.Metrics)
	js, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(js))
	return 0
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-40s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// child runs one workload in a fresh process, as the benchmark is meant to
// be run, and returns its result line. Its other output goes to stderr.
func child(args []string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%v: %w", args, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fmt.Fprintln(os.Stderr, sc.Text())
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("%v: result line: %w", args, err)
	}
	return res, nil
}

// runAll runs every workload once and prints every metric by name and unit.
func runAll(args func(string, int64) []string, seed int64) int {
	all := map[string]result{}
	code := 0
	for _, w := range workloads {
		res, err := child(args(w.name, seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Printf("== %s: correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
		printMetrics(res.Metrics)
		if !res.Correct {
			code = 1
		}
		all[w.name] = res
	}
	js, _ := json.Marshal(all) // maps of plain structs: cannot fail
	fmt.Println(string(js))
	return code
}

// repeatReport runs one workload n times with consecutive seeds and prints
// each metric's median, quartiles and quartile spread as a share of the
// median: the evidence a metric's regression bound rests on.
func repeatReport(args func(string, int64) []string, name string, seed int64, n int) int {
	if _, err := findWorkload(name); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	code := 0
	for i := 0; i < n; i++ {
		res, err := child(args(name, seed+int64(i)))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("steadiness of %s over %d runs (seeds %d..%d)\n", name, n, seed, seed+int64(n)-1)
	fmt.Printf("%-40s %12s %12s %12s %8s %s\n", "metric", "q1", "median", "q3", "iqr/med", "unit")
	for _, k := range names {
		q1, q2, q3 := quartiles(vals[k])
		fmt.Printf("%-40s %12.6g %12.6g %12.6g %8.4f %s\n", k, q1, q2, q3, ratio(q3-q1, q2), units[k])
	}
	return code
}
