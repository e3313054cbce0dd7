// Command perfbench is the repository's end-to-end benchmark: it runs
// one workload through the program's own entry points for a fixed
// time, checks every output, and prints each metric by name with its
// unit. The last line of standard output is a JSON object with the
// keys correct, attempted, failed and metrics. See README.md.
//
//	perfbench --workload sweep-small --seed 1 --seconds 20 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"syscall"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"sweep-small", "paper-scale", "detect-gp", "oracle-replay"}

func main() {
	workload := flag.String("workload", "", "workload name: sweep-small, paper-scale, detect-gp or oracle-replay")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced replica and prints per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	r, err := run(*workload, *seed, *seconds, *trace == 1, fullScale)
	if err == nil {
		err = r.write(os.Stdout, *workload, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if len(r.problems) > 0 {
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool, sc scale) (*report, error) {
	r := newReport()
	switch workload {
	case "oracle-replay":
		return r, runOracle(seed, seconds, traced, r)
	case "sweep-small", "paper-scale", "detect-gp":
		return r, runSim(workload, seed, seconds, traced, sc, r)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
