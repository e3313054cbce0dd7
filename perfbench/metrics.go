package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDecl is one declared metric. The two lists below must match
// BENCHMARK.json at the repository root exactly (bench_test.go checks).
type metricDecl struct{ name, unit string }

// endToEnd is what a user of the system sees, printed with --trace 0 on
// every workload. An "op" is one test-run on the simulation workloads
// and one trace (decode plus check under all four models) on
// oracle-replay; each value here is defined and non-zero on every
// workload.
var endToEnd = []metricDecl{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"instr_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is printed with --trace 1. It holds the workload-specific
// end-to-end figures under their own names (testruns_per_s,
// traces_per_s, detect_rate, ...) and the traced run's per-layer
// attribution. A metric a workload does not exercise reads 0 there.
var perLayer = []metricDecl{
	{"testruns_per_s", "1/s"},
	{"sim_instr_per_s", "1/s"},
	{"testrun_p50_ms", "ms"},
	{"testrun_tail_ms", "ms"},
	{"traces_per_s", "1/s"},
	{"trace_p50_us", "us"},
	{"trace_tail_us", "us"},
	{"detect_rate", "ratio"},
	{"runs_to_detect_p50", "runs"},
	{"detect_s_p50", "s"},
	{"failed_frac", "ratio"},
	{"bench.tail_pct", "%"},
	{"bench.samples", "count"},

	{"core.build_ms_per_campaign", "ms"},
	{"machine.new_ms_per_campaign", "ms"},
	{"host.reset_us_per_testrun", "us"},
	{"machine.reset_caches_us_per_testrun", "us"},
	{"machine.zero_mem_us_per_testrun", "us"},
	{"checker.resetall_us_per_testrun", "us"},
	{"sim.run_us_per_testrun", "us"},
	{"sim.ns_per_event", "ns"},
	{"sim.events_per_testrun", "count"},
	{"sim.ticks_per_testrun", "ticks"},
	{"cpu.committed_per_testrun", "count"},
	{"cpu.squashes_per_testrun", "count"},
	{"interconnect.msgs_per_testrun", "count"},
	{"checker.enditer_us_per_iteration", "us"},
	{"checker.fast_us", "us"},
	{"checker.exact_us", "us"},
	{"checker.memo_us", "us"},
	{"checker.ndt_us_per_testrun", "us"},
	{"checker.checks_per_testrun", "count"},
	{"checker.exact_frac", "ratio"},
	{"collective.hit_frac", "ratio"},
	{"trace.decode_us_per_trace", "us"},
	{"trace.materialize_us_per_trace", "us"},
	{"collective.signature_us_per_trace", "us"},
	{"oracle.check_us_per_trace", "us"},
	{"testgen.gen_us_per_testrun", "us"},
	{"testgen.compile_us_per_testrun", "us"},
	{"gp.feedback_us_per_testrun", "us"},
	{"coverage.endrun_us_per_testrun", "us"},
	{"coverage.total", "ratio"},
	{"host.detect_mcm", "count"},
	{"host.detect_protocol", "count"},
	{"host.detect_deadlock", "count"},
	{"go.allocs_per_testrun", "count"},
	{"go.alloc_kb_per_testrun", "KB"},
	{"fleet.merge_ms", "ms"},
	{"bench.unattributed_frac", "ratio"},
	{"bench.trace_overhead", "ratio"},
	{"bench.obs_agreement", "ratio"},
}

// report collects one invocation's figures and its correctness verdict.
type report struct {
	values    map[string]float64
	notes     []string
	problems  []string
	attempted int
	failed    int
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// notef records an informational line (digests, failure details).
func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// failf records a correctness failure: the run still prints its figures
// but reports correct=false and exits non-zero.
func (r *report) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the human-readable report — one "metric <name> <value>
// <unit>" line per figure the workload produced, then notes — and, as
// the last line, the JSON result holding the mode's declared list.
// End-to-end metrics must all be present; a per-layer metric the
// workload does not exercise reads 0.
func (r *report) write(w io.Writer, workload string, traced bool) error {
	decls := endToEnd
	if traced {
		decls = perLayer
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		if _, ok := units[n]; !ok {
			return fmt.Errorf("metric %q is not declared", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %s %.6g %s\n", n, r.values[n], units[n])
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s: %s\n", workload, n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# %s: CORRECTNESS FAILURE: %s\n", workload, p)
	}
	out := jsonResult{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range decls {
		v, ok := r.values[d.name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %q missing on %s", d.name, workload)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %q on %s is not finite", d.name, workload)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is left as it is.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailBlock is the number of consecutive samples one tail reading
// covers: the smallest block whose p99 has ten samples beyond it.
const tailBlock = 1000

// tail returns the run's tail latency and its percentile, from samples
// in the order they were taken. With at least tailBlock samples it is
// the p99 of each block of tailBlock consecutive samples, median over
// blocks — a short stall of the shared host lands in few blocks and
// does not move it. With fewer it is the p90 (100 or more samples),
// else the eleventh-largest sample: always a percentile with at least
// ten samples beyond it.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	switch {
	case n >= tailBlock:
		var p99s []float64
		for i := 0; i+tailBlock <= n; i += tailBlock {
			p99s = append(p99s, quantile(xs[i:i+tailBlock], 0.99))
		}
		return median(p99s), 99
	case n >= 100:
		return quantile(xs, 0.90), 90
	case n == 0:
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// median of xs; +Inf entries sort last.
func median(xs []float64) float64 { return quantile(xs, 0.5) }
