package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/testgen"
)

// testScale keeps every workload to one sample per cell and a
// hundredth of its campaign budget.
var testScale = scale{samples: 1, budgetDiv: 100}

func TestReplicaMatchesRunCampaign(t *testing.T) {
	sweep, err := sweepSmall(3, testScale)
	if err != nil {
		t.Fatal(err)
	}
	detect, err := detectGP(3, testScale)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := paperScale(3, testScale)
	if err != nil {
		t.Fatal(err)
	}
	withRuns := func(cfg core.Config, runs int) core.Config {
		cfg.MaxTestRuns = runs
		return cfg
	}
	cases := map[string]core.Config{
		"bug-free rand tsocc-rmo":  withRuns(sweep.items[len(sweep.items)-1], 10),
		"bug-free gp-all mesi-tso": withRuns(paper.items[0], 2),
	}
	for _, cfg := range detect.items {
		switch cfg.Scenario.Bugs[0] {
		case "LQ+no-TSO":
			cases["bug-injected gp-all LQ+no-TSO"] = withRuns(cfg, 200)
		case "MESI,LQ+S,Replacement":
			// Past the GP population fill, so selection, crossover
			// and feedback all run.
			cases["bug-injected gp-all LQ+S,Replacement"] = withRuns(cfg, 40)
		}
	}
	if len(cases) != 4 {
		t.Fatalf("missing a case: %v", cases)
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			ref := cfg
			ref.Memo = collective.NewMemo()
			want, err := core.RunCampaign(ref)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Memo = collective.NewMemo()
			plain := runPlain(context.Background(), cfg, nil)
			got := runTraced(context.Background(), cfg, collective.NewMemo(), &layerAcc{})
			if plain.err != nil || got.err != nil {
				t.Fatalf("plain err %v, traced err %v", plain.err, got.err)
			}
			if !reflect.DeepEqual(got.res, want) || !reflect.DeepEqual(plain.res, want) {
				t.Errorf("results differ:\n traced %+v\n plain  %+v\n want   %+v", got.res, plain.res, want)
			}
			if got.counts != plain.counts {
				t.Errorf("machine counts differ: traced %+v, plain %+v", got.counts, plain.counts)
			}
			if name == "bug-injected gp-all LQ+no-TSO" && !want.Found {
				t.Errorf("injected bug not found in %d runs; the case does not exercise the detection path", want.TestRuns)
			}
		})
	}
}

func firstTest(cfg core.Config) (*testgen.Test, error) {
	gen, err := testgen.NewGenerator(cfg.Test, rand.New(rand.NewSource(cfg.Seed^genSalt)))
	if err != nil {
		return nil, err
	}
	return gen.NewTest(), nil
}

func TestSeedChangesInputs(t *testing.T) {
	for _, name := range []string{"sweep-small", "paper-scale", "detect-gp"} {
		a, err := simWorkloadByName(name, 1, fullScale)
		if err != nil {
			t.Fatal(err)
		}
		b, err := simWorkloadByName(name, 2, fullScale)
		if err != nil {
			t.Fatal(err)
		}
		again, err := simWorkloadByName(name, 1, fullScale)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.items, again.items) {
			t.Errorf("%s: the same seed built different items", name)
		}
		for i := range a.items {
			ta, err := firstTest(a.items[i])
			if err != nil {
				t.Fatal(err)
			}
			tb, err := firstTest(b.items[i])
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(ta, tb) {
				t.Errorf("%s item %d: seeds 1 and 2 generate the same first test", name, i)
			}
		}
	}
	c1, err := buildCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	c1again, err := buildCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := buildCorpus(2)
	if err != nil {
		t.Fatal(err)
	}
	if c1.digest() != c1again.digest() {
		t.Error("the same seed built different corpora")
	}
	if c1.digest() == c2.digest() {
		t.Error("seeds 1 and 2 built the same corpus")
	}
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func declNames(ds []declared) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Name+" "+d.Unit)
	}
	sort.Strings(out)
	return out
}

func codeNames(ds []metricDecl) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.name+" "+d.unit)
	}
	sort.Strings(out)
	return out
}

// TestMetricNamesDeclared runs every workload briefly in both modes and
// checks that each metric name the command prints — on a "metric"
// line or in the JSON result — is declared in BENCHMARK.json, and that
// the JSON result holds exactly the mode's declared list.
func TestMetricNamesDeclared(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(declNames(bench.EndToEnd), codeNames(endToEnd)) {
		t.Errorf("end_to_end in BENCHMARK.json %v, code %v", declNames(bench.EndToEnd), codeNames(endToEnd))
	}
	if !reflect.DeepEqual(declNames(bench.PerLayer), codeNames(perLayer)) {
		t.Errorf("per_layer in BENCHMARK.json %v, code %v", declNames(bench.PerLayer), codeNames(perLayer))
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads in BENCHMARK.json %v, code %v", names, workloadNames)
	}
	units := map[string]bool{}
	for _, d := range append(bench.EndToEnd, bench.PerLayer...) {
		units[d.Name] = true
	}

	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			r, err := run(w, 5, 0.05, traced, testScale)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			var buf bytes.Buffer
			if err := r.write(&buf, w, traced); err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if len(r.problems) > 0 {
				t.Errorf("%s traced=%v: correctness failures %v", w, traced, r.problems)
			}
			var last string
			sc := bufio.NewScanner(&buf)
			for sc.Scan() {
				last = sc.Text()
				if f := strings.Fields(last); len(f) == 4 && f[0] == "metric" && !units[f[1]] {
					t.Errorf("%s prints undeclared metric %q", w, f[1])
				}
			}
			var res jsonResult
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the JSON result: %v", w, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d metrics (want %d), attempted %d", w, traced, len(res.Metrics), len(want), res.Attempted)
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q", w, traced, d.name, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", w, d.name, m.Value)
				}
			}
		}
	}
}

// TestCountsIndependentOfDuration checks that attempted and failed are
// fixed by the seed: a run several times longer repeats more rounds
// but reports the same counts.
func TestCountsIndependentOfDuration(t *testing.T) {
	for _, w := range []string{"sweep-small", "oracle-replay"} {
		var got [2][2]int
		for i, secs := range []float64{0.05, 0.5} {
			r, err := run(w, 3, secs, false, testScale)
			if err != nil {
				t.Fatalf("%s %.2fs: %v", w, secs, err)
			}
			if len(r.problems) > 0 {
				t.Errorf("%s %.2fs: correctness failures %v", w, secs, r.problems)
			}
			got[i] = [2]int{r.attempted, r.failed}
		}
		if got[0] != got[1] {
			t.Errorf("%s: attempted/failed %v in a short run, %v in a longer one", w, got[0], got[1])
		}
	}
}
