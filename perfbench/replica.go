package main

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/checker"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/gp"
	"repro/internal/host"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/testgen"
)

// The traced replica re-drives a campaign from the benchmark's own
// files through the layers' exported calls — the constructors
// core.NewCampaign uses, then the calls host.RunTest and
// core.Campaign.Step make — timing each call. It mirrors those two
// functions step for step (seed salts, barrier skew draw, violation
// order), so its core.Result must equal the program's byte for byte;
// runSim fails the run if it does not. Where the program's call is not
// reachable from outside, the replica times the smallest exported call
// that encloses it:
//   - Host.ResetTestMem is timed as its two halves, Machine.ResetCaches
//     and Machine.ZeroTestMemory.
//   - The host's private barrier-offset draw and ErrorTrap.ProtoErr are
//     timed inside sim.run, with LoadPrograms/RunPrograms/Quiesce.
//   - Campaign construction is timed whole (core.build), with
//     machine.New inside it.

// Salts core.NewCampaign applies to the campaign seed.
const (
	genSalt = 0x5eed
	gpSalt  = 0x6e61
	// hostSkewMax is the host barrier's release skew bound (host
	// package, HostBarrier).
	hostSkewMax = 4
)

// layerAcc sums the traced replica's spans and counts across campaigns.
type layerAcc struct {
	mu sync.Mutex
	layerTimes
}

type layerTimes struct {
	campaigns, testruns, iterations int
	total, build, machineNew        time.Duration
	gen, compile, coverage, fb      time.Duration
	resetAll, resetCaches, zeroMem  time.Duration
	sim, enditer, ndt               time.Duration
	fast, exact, memo               time.Duration
	events                          uint64
}

func (a *layerAcc) add(t layerTimes) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.campaigns += t.campaigns
	a.testruns += t.testruns
	a.iterations += t.iterations
	for i, d := range t.durations() {
		*a.layerTimes.durations()[i] += *d
	}
	a.events += t.events
}

func (t *layerTimes) durations() []*time.Duration {
	return []*time.Duration{&t.total, &t.build, &t.machineNew, &t.gen, &t.compile, &t.coverage, &t.fb,
		&t.resetAll, &t.resetCaches, &t.zeroMem, &t.sim, &t.enditer, &t.ndt, &t.fast, &t.exact, &t.memo}
}

// topLevel is the time covered by timed layer calls (machine.New and
// the fast/exact/memo split are inside build and enditer).
func (t *layerTimes) topLevel() time.Duration {
	return t.build + t.gen + t.compile + t.coverage + t.fb + t.resetAll + t.resetCaches + t.zeroMem + t.sim + t.enditer + t.ndt
}

type replica struct {
	cfg     core.Config
	tracker *coverage.Tracker
	rec     *checker.Recorder
	trap    host.ErrorTrap
	m       *machine.Machine
	gen     *testgen.Generator
	engine  *gp.Engine
	iters   int
	maxTick sim.Tick
	t       layerTimes
}

func lap(t *time.Time, d *time.Duration) {
	now := time.Now()
	*d += now.Sub(*t)
	*t = now
}

// buildReplica mirrors core.NewCampaign.
func buildReplica(cfg core.Config, memo *collective.Memo) (*replica, error) {
	t0 := time.Now()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	scn, err := cfg.ResolvedScenario()
	if err != nil {
		return nil, err
	}
	mcfg, err := scn.Apply(cfg.Machine)
	if err != nil {
		return nil, err
	}
	mcfg.Seed = cfg.Seed
	if cfg.Generator == core.GenGPStdXO || cfg.Host.Barrier != host.HostBarrier {
		return nil, errors.New("replica: only the rand and gp-all generators with the host barrier are mirrored")
	}
	r := &replica{cfg: cfg, iters: cfg.Host.Iterations, maxTick: cfg.Host.MaxTicksPerIteration}
	if r.iters <= 0 {
		r.iters = 1
	}
	if r.maxTick == 0 {
		r.maxTick = host.DefaultOptions().MaxTicksPerIteration
	}
	r.tracker = coverage.NewTrackerForTable(machine.CoverageTable(mcfg.Protocol), cfg.Coverage)
	arch, err := scn.Arch()
	if err != nil {
		return nil, err
	}
	r.rec = checker.NewRecorder(arch)
	r.rec.SetMemo(memo)
	r.rec.SetScope(scn.ID())
	r.trap = host.NewErrorTrap()
	tm := time.Now()
	r.m, err = machine.New(mcfg, r.tracker, r.trap, r.rec)
	r.t.machineNew = time.Since(tm)
	if err != nil {
		return nil, err
	}
	r.gen, err = testgen.NewGenerator(cfg.Test, rand.New(rand.NewSource(cfg.Seed^genSalt)))
	if err != nil {
		return nil, err
	}
	if cfg.Generator == core.GenGPAll {
		params := cfg.GP
		params.Crossover = gp.SelectiveCrossover
		r.engine, err = gp.New(params, r.gen, rand.New(rand.NewSource(cfg.Seed^gpSalt)))
		if err != nil {
			return nil, err
		}
	}
	r.t.build = time.Since(t0)
	return r, nil
}

func (r *replica) resetTestMem(t *testgen.Test, mark *time.Time) {
	r.m.ResetCaches()
	lap(mark, &r.t.resetCaches)
	r.m.ZeroTestMemory(t.Layout)
	lap(mark, &r.t.zeroMem)
}

// step mirrors core.Campaign.Step and host.RunTest for one test-run.
func (r *replica) step() (host.RunResult, float64, error) {
	mark := time.Now()
	var tst *testgen.Test
	if r.engine != nil {
		tst = r.engine.Next()
	} else {
		tst = r.gen.NewTest()
	}
	lap(&mark, &r.t.gen)
	r.tracker.StartRun()
	lap(&mark, &r.t.coverage)

	progs, err := testgen.Compile(tst)
	if err != nil {
		return host.RunResult{}, 0, err
	}
	lap(&mark, &r.t.compile)
	start := r.m.Sim.Now()
	var res host.RunResult
	r.rec.ResetAll()
	lap(&mark, &r.t.resetAll)
	r.resetTestMem(tst, &mark)

	for iter := 0; iter < r.iters; iter++ {
		if err := r.m.LoadPrograms(progs); err != nil {
			return host.RunResult{}, 0, err
		}
		runErr := r.m.RunPrograms(r.barrierOffsets(), r.maxTick)
		if runErr == nil {
			r.m.Quiesce()
		}
		res.Iterations = iter + 1
		r.t.iterations++
		perr := r.trap.ProtoErr()
		lap(&mark, &r.t.sim)
		if perr != nil {
			res.Violation = &host.Violation{Source: host.SourceProtocol, Err: perr}
			break
		}
		if runErr != nil {
			var dead *sim.ErrDeadlock
			var timeout *sim.ErrTimeout
			if errors.As(runErr, &dead) || errors.As(runErr, &timeout) {
				res.Violation = &host.Violation{Source: host.SourceDeadlock, Err: runErr}
				break
			}
			return host.RunResult{}, 0, runErr
		}
		hits0, fast0 := r.rec.Dedupe().Hits, r.rec.Fastpath().Conclusive()
		t0 := mark
		v := r.rec.EndIteration()
		lap(&mark, &r.t.enditer)
		d := mark.Sub(t0)
		switch {
		case r.rec.Dedupe().Hits > hits0:
			r.t.memo += d
		case r.rec.Fastpath().Conclusive() > fast0:
			r.t.fast += d
		default:
			r.t.exact += d
		}
		if v != nil {
			res.Violation = &host.Violation{Source: host.SourceChecker, Err: v}
			break
		}
		r.resetTestMem(tst, &mark)
	}
	res.NDT = r.rec.NDT()
	res.FitAddrs = r.rec.FitAddrs()
	res.Dedupe = r.rec.Dedupe()
	res.Fastpath = r.rec.Fastpath()
	res.Ticks = r.m.Sim.Now() - start
	lap(&mark, &r.t.ndt)

	fitness := r.tracker.EndRun()
	lap(&mark, &r.t.coverage)
	if r.engine != nil {
		r.engine.Feedback(&gp.Individual{Test: tst, Fitness: fitness, NDT: res.NDT, FitAddrs: res.FitAddrs})
		lap(&mark, &r.t.fb)
	}
	r.t.testruns++
	return res, fitness, nil
}

// barrierOffsets mirrors the host barrier's per-core release skew draw.
func (r *replica) barrierOffsets() []sim.Tick {
	rng := r.m.Sim.Rand()
	offs := make([]sim.Tick, len(r.m.Cores))
	for i := range offs {
		offs[i] = sim.Tick(rng.Int63n(hostSkewMax + 1))
	}
	return offs
}

// run mirrors core.Campaign.Advance to completion and Campaign.Result.
func (r *replica) run(ctx context.Context, out *campaignOut) error {
	res := &out.res
	var cut error
	for {
		if cut = ctx.Err(); cut != nil {
			break
		}
		if r.cfg.MaxTestRuns > 0 && res.TestRuns >= r.cfg.MaxTestRuns {
			break
		}
		if r.cfg.MaxSimTicks > 0 && r.m.Sim.Now() >= r.cfg.MaxSimTicks {
			break
		}
		ts := time.Now()
		rr, fitness, err := r.step()
		if err != nil {
			return err
		}
		out.latMs = append(out.latMs, msSince(ts))
		res.TestRuns++
		res.SumFitness += fitness
		res.Dedupe.Merge(rr.Dedupe)
		out.fast.Merge(rr.Fastpath)
		res.LastNDT = rr.NDT
		if rr.NDT > res.MaxNDT {
			res.MaxNDT = rr.NDT
		}
		if rr.Violation != nil {
			res.Found = true
			res.Source = rr.Violation.Source.String()
			res.Detail = rr.Violation.Err.Error()
			break
		}
	}
	scn, _ := r.cfg.ResolvedScenario()
	res.Scenario = scn.ID()
	res.SimTicks = r.m.Sim.Now()
	res.SimSeconds = res.SimTicks.Seconds()
	res.Committed = r.m.CommittedInstructions()
	res.TotalCoverage = r.tracker.TotalCoverage()
	return cut
}

// runTraced runs one campaign through the replica and folds its spans
// into acc.
func runTraced(ctx context.Context, cfg core.Config, memo *collective.Memo, acc *layerAcc) *campaignOut {
	out := &campaignOut{covKey: string(cfg.Scenario.Protocol)}
	t0 := time.Now()
	r, err := buildReplica(cfg, memo)
	if err != nil {
		out.err = err
		return out
	}
	if err := r.run(ctx, out); errors.Is(err, context.DeadlineExceeded) {
		out.cut = true
	} else if err != nil {
		out.err = err
		return out
	}
	out.elapsed = time.Since(t0).Seconds()
	out.counts = machineCounts(r.m)
	out.cov = r.tracker.Snapshot(nil)
	r.t.total = time.Since(t0)
	r.t.campaigns = 1
	r.t.events = out.counts.events
	acc.add(r.t)
	return out
}

// set reports the per-layer figures: per campaign, per test-run or per
// iteration over everything the traced phase ran.
func (a *layerAcc) set(r *report, traced, plain *simPhase, phases obs.Snapshot) {
	us := func(d time.Duration, n int) float64 { return float64(d) / 1e3 / float64(max(n, 1)) }
	ms := func(d time.Duration, n int) float64 { return float64(d) / 1e6 / float64(max(n, 1)) }
	r.set("core.build_ms_per_campaign", ms(a.build, a.campaigns))
	r.set("machine.new_ms_per_campaign", ms(a.machineNew, a.campaigns))
	r.set("host.reset_us_per_testrun", us(a.resetCaches+a.zeroMem, a.testruns))
	r.set("machine.reset_caches_us_per_testrun", us(a.resetCaches, a.testruns))
	r.set("machine.zero_mem_us_per_testrun", us(a.zeroMem, a.testruns))
	r.set("checker.resetall_us_per_testrun", us(a.resetAll, a.testruns))
	r.set("sim.run_us_per_testrun", us(a.sim, a.testruns))
	r.set("sim.ns_per_event", float64(a.sim)/float64(max(a.events, 1)))
	r.set("checker.enditer_us_per_iteration", us(a.enditer, a.iterations))
	r.set("checker.fast_us", us(a.fast, a.iterations))
	r.set("checker.exact_us", us(a.exact, a.iterations))
	r.set("checker.memo_us", us(a.memo, a.iterations))
	r.set("checker.ndt_us_per_testrun", us(a.ndt, a.testruns))
	r.set("testgen.gen_us_per_testrun", us(a.gen, a.testruns))
	r.set("testgen.compile_us_per_testrun", us(a.compile, a.testruns))
	r.set("gp.feedback_us_per_testrun", us(a.fb, a.testruns))
	r.set("coverage.endrun_us_per_testrun", us(a.coverage, a.testruns))
	r.set("bench.unattributed_frac", 1-float64(a.topLevel())/float64(a.total))
	r.set("bench.trace_overhead", traced.opsPerSec()/plain.opsPerSec())

	// The program's own spans cover reset, simulation and checking in
	// its sim/fastcheck/check/memo phases; the replica's sums over the
	// same calls should agree with them.
	progNs := phases.Sim.Ns + phases.FastCheck.Ns + phases.Check.Ns + phases.Memo.Ns
	mine := a.resetAll + a.resetCaches + a.zeroMem + a.sim + a.enditer
	agree := (float64(mine) / float64(max(a.testruns, 1))) / (float64(progNs) / float64(max(plain.runs, 1)))
	r.set("bench.obs_agreement", agree)
	if !(agree >= 0.5 && agree <= 2) {
		r.failf("traced reset+sim+check per test-run is %.2fx the program's own obs phases", agree)
	}
}
