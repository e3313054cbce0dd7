package main

import (
	"fmt"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/gp"
	"repro/internal/host"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/scenario"
	"repro/internal/testgen"
)

// simWorkload is one closed batch of campaigns: a round is every item
// campaign run to its end (budget or first detection). A run repeats
// the round for as long as it measures; every repeat must produce the
// same results.
type simWorkload struct {
	name  string
	items []core.Config
	// bugFree marks workloads on bug-free machines, where any detection
	// is a failed test-run (a false detection).
	bugFree bool
	// detect marks the detection workload: each item is one (bug,
	// seed) pair and the run reports detection rate and speed.
	detect bool
}

// workers is the fleet worker count: fixed, and no larger than the
// two CPUs the benchmark is sized for.
const workers = 2

// seedBase maps the benchmark's --seed to the base of every campaign
// seed in the workload (core.SampleSeed derives the per-item seeds).
func seedBase(seed int64) int64 { return 1 + seed*104729 }

// scale shrinks a workload for the benchmark's own tests: samples, when
// positive, replaces the seeds per cell, and budgetDiv divides each
// campaign's test-run budget. fullScale is the benchmark as declared.
type scale struct{ samples, budgetDiv int }

var fullScale = scale{}

func pick(n, override int) int {
	if override > 0 {
		return override
	}
	return n
}

func scaledRuns(runs int, sc scale) int {
	if sc.budgetDiv > 1 {
		runs /= sc.budgetDiv
	}
	if runs < 1 {
		runs = 1
	}
	return runs
}

func baseConfig(gen core.GeneratorKind, size, memBytes, iterations, runs int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Generator = gen
	cfg.Test = testgen.Config{
		Size:    size,
		Threads: cfg.Machine.Cores,
		Layout:  memsys.MustLayout(memBytes, 16),
	}
	cfg.Coverage = coverage.DefaultParams()
	cfg.Host = host.Options{Iterations: iterations, Barrier: host.HostBarrier, MaxTicksPerIteration: 30_000_000}
	cfg.MaxTestRuns = runs
	return cfg
}

// sweepSmall: every registered scenario, short rand campaigns of small
// tests — per-run fixed costs (reset, machine build, checker) dominate.
func sweepSmall(seed int64, sc scale) (*simWorkload, error) {
	const samples = 4
	w := &simWorkload{name: "sweep-small", bugFree: true}
	base := seedBase(seed)
	for _, name := range scenario.Names() {
		scn, err := scenario.ByName(name)
		if err != nil {
			return nil, err
		}
		for s := 0; s < pick(samples, sc.samples); s++ {
			cfg := baseConfig(core.GenRandom, 48, 1024, 2, scaledRuns(10, sc))
			cfg.Scenario = scn
			cfg.Seed = core.SampleSeed(base, len(w.items))
			w.items = append(w.items, cfg)
		}
	}
	return w, nil
}

// paperScale: Table 3 GP-ALL tests on the paper's two protocols against
// TSO — the simulator hot loop dominates.
func paperScale(seed int64, sc scale) (*simWorkload, error) {
	const samples, runs = 8, 2
	w := &simWorkload{name: "paper-scale", bugFree: true}
	base := seedBase(seed)
	protos := []string{"mesi-tso", "tsocc-tso"}
	n := pick(samples, sc.samples)
	w.items = make([]core.Config, len(protos)*n)
	for p, name := range protos {
		scn, err := scenario.ByName(name)
		if err != nil {
			return nil, err
		}
		for s := 0; s < n; s++ {
			cfg := baseConfig(core.GenGPAll, 1000, 8192, 10, scaledRuns(runs, sc))
			cfg.GP = gp.PaperParams()
			cfg.Scenario = scn
			cfg.Seed = core.SampleSeed(base, p*n+s)
			// The protocols alternate in item order, so the round the
			// deadline cuts holds both in equal shares: their test-runs
			// differ in length (tsocc-tso campaigns often stop early on
			// a false detection), and a cut round of one protocol only
			// would move the run's figures.
			w.items[len(protos)*s+p] = cfg
		}
	}
	return w, nil
}

// detectGP: Table 4 scaled — GP-ALL on every injected bug, one campaign
// per (bug, seed) pair, each stopping at its first detection.
func detectGP(seed int64, sc scale) (*simWorkload, error) {
	const seeds, budget = 4, 600
	w := &simWorkload{name: "detect-gp", detect: true}
	base := seedBase(seed)
	for _, b := range bugs.All() {
		proto := machine.MESI
		if b.Protocol == bugs.ProtoTSOCC {
			proto = machine.TSOCC
		}
		memBytes := 1024
		switch b.Name {
		case "MESI,LQ+S,Replacement", "MESI+PUTX-Race", "MESI+Replace-Race":
			// Only findable with the eviction-heavy 8 KB layout (§6.1).
			memBytes = 8192
		}
		for s := 0; s < pick(seeds, sc.samples); s++ {
			cfg := baseConfig(core.GenGPAll, 96, memBytes, 3, scaledRuns(budget, sc))
			cfg.GP = gp.PaperParams()
			cfg.GP.PopulationSize = 24
			cfg.Scenario = scenario.ForBug(proto, b.Name)
			cfg.Seed = core.SampleSeed(base, len(w.items))
			w.items = append(w.items, cfg)
		}
	}
	return w, nil
}

func simWorkloadByName(name string, seed int64, sc scale) (*simWorkload, error) {
	switch name {
	case "sweep-small":
		return sweepSmall(seed, sc)
	case "paper-scale":
		return paperScale(seed, sc)
	case "detect-gp":
		return detectGP(seed, sc)
	}
	return nil, fmt.Errorf("unknown simulation workload %q", name)
}
