package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/interconnect"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/stats"
)

// campaignOut is one finished campaign: its deterministic result and
// exact machine counts, plus the host-time figures measured around it.
type campaignOut struct {
	res     core.Result
	counts  simCounts
	fast    stats.Fastpath
	covKey  string
	cov     []uint64
	latMs   []float64 // per test-run latency
	elapsed float64   // host seconds from campaign start (build included) to its end
	// cut marks a campaign stopped at the run's deadline: its test-runs
	// count toward throughput and latency, but its round is incomplete.
	cut bool
	err error
}

// simCounts are exact simulated totals of one campaign: a speed-only
// change to the program must leave every one of them identical.
type simCounts struct {
	events, ticks, committed, squashes, msgs uint64
}

func machineCounts(m *machine.Machine) simCounts {
	c := simCounts{
		events:    m.Sim.Executed(),
		ticks:     uint64(m.Sim.Now()),
		committed: m.CommittedInstructions(),
	}
	for _, core := range m.Cores {
		c.squashes += core.Squashes()
	}
	for v := interconnect.VNet(0); v < interconnect.NumVNets; v++ {
		c.msgs += m.Net.Sent(v)
	}
	return c
}

func (c *simCounts) add(o simCounts) {
	c.events += o.events
	c.ticks += o.ticks
	c.committed += o.committed
	c.squashes += o.squashes
	c.msgs += o.msgs
}

// runPlain runs one campaign through the program's own entry points,
// timing each test-run from outside (Advance one run at a time).
func runPlain(ctx context.Context, cfg core.Config, ps *obs.PhaseStats) *campaignOut {
	out := &campaignOut{covKey: string(cfg.Scenario.Protocol)}
	t0 := time.Now()
	camp, err := core.NewCampaign(cfg)
	if err != nil {
		out.err = err
		return out
	}
	if ps != nil {
		camp.InstrumentObs(ps)
	}
	h := camp.Host()
	for {
		before := h.Runs()
		ts := time.Now()
		done, err := camp.Advance(ctx, 1)
		if h.Runs() > before {
			out.latMs = append(out.latMs, msSince(ts))
		}
		if errors.Is(err, context.DeadlineExceeded) {
			out.cut = true
			out.res = camp.Result()
			return out
		}
		if err != nil {
			out.err = err
			return out
		}
		if done {
			break
		}
	}
	out.res = camp.Result()
	out.elapsed = time.Since(t0).Seconds()
	out.counts = machineCounts(h.Machine())
	out.fast = camp.Fastpath()
	out.cov = camp.Tracker().Snapshot(nil)
	return out
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// drive runs rounds of the workload's n items on a fixed pool of
// workers until the time budget is spent. Items are handed out in
// (round, item) order from one counter, so a worker never idles at a
// round boundary. Round 0 always completes; campaigns of later rounds
// get a context that expires at the budget and stop there, so the run
// ends within one test-run of the budget. Each round gets a fresh
// collective memo shared by its campaigns, as one fleet shard does, so
// every round does the same work.
func drive(n int, budget time.Duration, fn func(ctx context.Context, item int, memo *collective.Memo) *campaignOut) (rounds [][]*campaignOut, wall time.Duration) {
	start := time.Now()
	deadline, cancel := context.WithDeadline(context.Background(), start.Add(budget))
	defer cancel()
	var (
		mu    sync.Mutex
		memos []*collective.Memo
		done  []int
		next  atomic.Int64
		wg    sync.WaitGroup
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				round, item := k/n, k%n
				if round > 0 && time.Since(start) >= budget {
					return
				}
				mu.Lock()
				for len(memos) <= round {
					memos = append(memos, collective.NewMemo())
					done = append(done, 0)
					rounds = append(rounds, make([]*campaignOut, n))
				}
				memo := memos[round]
				mu.Unlock()
				ctx := context.Background()
				if round > 0 {
					ctx = deadline
				}
				out := fn(ctx, item, memo)
				mu.Lock()
				rounds[round][item] = out
				if done[round]++; done[round] == n {
					memos[round] = nil // let the finished round's verdicts go
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return rounds, time.Since(start)
}

func complete(round []*campaignOut) bool {
	for _, o := range round {
		if o == nil || o.cut {
			return false
		}
	}
	return true
}

// roundDigest merges a complete round through the fleet's canonical
// merger and hashes its CanonicalBytes: the identity every repeat, and
// the traced replica, must reproduce. It also returns the merge time.
func roundDigest(round []*campaignOut) (string, time.Duration, error) {
	sr := fleet.ShardResult{Range: fleet.Range{Start: 0, End: len(round)}}
	for _, o := range round {
		sr.Results = append(sr.Results, o.res)
		switch {
		case sr.CoverageMixed:
		case sr.CoverageKey == "" && sr.CoverageCounts == nil:
			sr.CoverageKey = o.covKey
			sr.CoverageCounts = append([]uint64(nil), o.cov...)
		case sr.CoverageKey == o.covKey && len(sr.CoverageCounts) == len(o.cov):
			for i, c := range o.cov {
				sr.CoverageCounts[i] += c
			}
		default:
			sr.CoverageMixed = true
			sr.CoverageKey, sr.CoverageCounts = "", nil
		}
	}
	t0 := time.Now()
	merged, err := fleet.MergeShards(len(round), []fleet.ShardResult{sr})
	if err != nil {
		return "", 0, err
	}
	b, err := merged.CanonicalBytes()
	if err != nil {
		return "", 0, err
	}
	d := time.Since(t0)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), d, nil
}

// simPhase is what one timed phase (plain or traced) of a run produced.
type simPhase struct {
	rounds  [][]*campaignOut
	wall    time.Duration
	digests []string
	mergeMs []float64
	runs    int
	cut     int
	instr   uint64
	lat     []float64
}

// summarize totals a phase's rounds. The report's attempted and failed
// count round 0 only: later rounds repeat it exactly (their digests
// must match), so counting them too would make both counts depend on
// how fast the host ran rather than on the seed. A campaign error in
// round 0 counts as one attempted, failed operation; in a later round
// it is a correctness failure.
func summarize(w *simWorkload, rounds [][]*campaignOut, wall time.Duration, r *report) *simPhase {
	p := &simPhase{rounds: rounds, wall: wall}
	for ri, round := range rounds {
		for _, o := range round {
			if o == nil {
				continue
			}
			if o.err != nil {
				if ri == 0 {
					r.attempted++
					r.failed++
				}
				r.failf("campaign error in round %d: %v", ri, o.err)
				continue
			}
			p.cut += btoi(o.cut)
			p.runs += o.res.TestRuns
			p.instr += o.res.Committed
			p.lat = append(p.lat, o.latMs...)
			if ri == 0 {
				r.attempted += o.res.TestRuns
				if w.bugFree && o.res.Found {
					r.failed++
				}
			}
		}
		if !complete(round) {
			continue
		}
		d, md, err := roundDigest(round)
		if err != nil {
			r.failf("merge of round %d: %v", ri, err)
			continue
		}
		p.digests = append(p.digests, d)
		p.mergeMs = append(p.mergeMs, float64(md)/1e6)
	}
	for i, d := range p.digests {
		if d != p.digests[0] {
			r.failf("round %d digest %s differs from round 0 digest %s", i, d, p.digests[0])
		}
	}
	return p
}

func (p *simPhase) opsPerSec() float64 { return float64(p.runs) / p.wall.Seconds() }

// setSimEndToEnd fills the end-to-end figures from the plain phase.
func setSimEndToEnd(w *simWorkload, p *simPhase, r *report) {
	ops := p.opsPerSec()
	instr := float64(p.instr) / p.wall.Seconds()
	lat := p.lat
	p50 := quantile(lat, 0.5)
	tl, pct := tail(lat)
	r.set("ops_per_s", ops)
	r.set("op_p50_ms", p50)
	r.set("op_tail_ms", tl)
	r.set("instr_per_s", instr)
	r.set("testruns_per_s", ops)
	r.set("sim_instr_per_s", instr)
	r.set("testrun_p50_ms", p50)
	r.set("testrun_tail_ms", tl)
	r.set("bench.tail_pct", pct)
	r.set("bench.samples", float64(len(lat)))
	r.set("failed_frac", float64(r.failed)/math.Max(1, float64(r.attempted)))
	r.notef("%d test-runs in %d rounds (%d complete, %d campaigns cut at the deadline) over %.2fs on %d workers; tail is p%.2f of %d samples",
		p.runs, len(p.rounds), len(p.digests), p.cut, p.wall.Seconds(), workers, pct, len(lat))
	if len(p.digests) > 0 {
		r.notef("canonical digest %s (identical across %d complete rounds)", p.digests[0], len(p.digests))
	}
	round0 := p.rounds[0]
	var det [3]int
	for i, o := range round0 {
		if o == nil || o.err != nil || !o.res.Found {
			continue
		}
		switch o.res.Source {
		case "mcm-violation":
			det[0]++
		case "protocol-error":
			det[1]++
		default:
			det[2]++
		}
		if w.bugFree {
			r.notef("false detection: item %d (%s seed %d) run %d: %s: %s",
				i, o.res.Scenario, w.items[i].Seed, o.res.TestRuns, o.res.Source, o.res.Detail)
		}
	}
	r.set("host.detect_mcm", float64(det[0]))
	r.set("host.detect_protocol", float64(det[1]))
	r.set("host.detect_deadlock", float64(det[2]))
	if w.detect {
		setDetect(w, p, r)
	}
	setExactCounts(p, r)
}

// setExactCounts reports round 0's exact totals per test-run. Every
// round repeats them for a seed, so a parent/change pair compares
// exactly; a speed-only change must leave them all identical. The
// checker fallback share is also noted per scenario: memo scopes never
// cross scenarios, so each scenario's total is deterministic even
// though its split across campaigns is not.
func setExactCounts(p *simPhase, r *report) {
	var n int
	var c simCounts
	var fp stats.Fastpath
	var ded stats.Dedupe
	var cov float64
	byScn := map[string]*stats.Fastpath{}
	var scns []string
	for _, o := range p.rounds[0] {
		if o == nil || o.err != nil {
			continue
		}
		n += o.res.TestRuns
		c.add(o.counts)
		fp.Merge(o.fast)
		ded.Merge(o.res.Dedupe)
		cov += o.res.TotalCoverage
		if byScn[o.res.Scenario] == nil {
			byScn[o.res.Scenario] = &stats.Fastpath{}
			scns = append(scns, o.res.Scenario)
		}
		byScn[o.res.Scenario].Merge(o.fast)
	}
	per := func(v uint64) float64 { return float64(v) / float64(max(n, 1)) }
	r.set("sim.events_per_testrun", per(c.events))
	r.set("sim.ticks_per_testrun", per(c.ticks))
	r.set("cpu.committed_per_testrun", per(c.committed))
	r.set("cpu.squashes_per_testrun", per(c.squashes))
	r.set("interconnect.msgs_per_testrun", per(c.msgs))
	r.set("checker.checks_per_testrun", per(fp.Checks))
	r.set("checker.exact_frac", fp.FallbackRate())
	r.set("collective.hit_frac", ded.HitRate())
	r.set("coverage.total", cov/float64(len(p.rounds[0])))
	r.notef("round 0 exact totals over %d test-runs: %d events, %d ticks, %d committed, %d squashes, %d messages, %d checks (%d exact fallbacks), %d/%d memo hits",
		n, c.events, c.ticks, c.committed, c.squashes, c.msgs, fp.Checks, fp.Fallback, ded.Hits, ded.Checks)
	sort.Strings(scns)
	for _, id := range scns {
		f := byScn[id]
		r.notef("checker fallback share %s: %.3f of %d checks", id, f.FallbackRate(), f.Checks)
	}
}

// setDetect reports the paper's metric over round 0's (bug, seed)
// pairs: found share, test-runs to detect and host seconds to detect
// (build included), unfound pairs counting as +Inf. Detection seconds
// take each pair's median over the complete rounds.
func setDetect(w *simWorkload, p *simPhase, r *report) {
	var found int
	var runs, secs []float64
	for i, o := range p.rounds[0] {
		if o == nil || o.err != nil {
			continue
		}
		if !o.res.Found {
			runs = append(runs, math.Inf(1))
			secs = append(secs, math.Inf(1))
			r.notef("unfound: %s seed %d after %d test-runs", o.res.Scenario, w.items[i].Seed, o.res.TestRuns)
			continue
		}
		found++
		runs = append(runs, float64(o.res.TestRuns))
		var per []float64
		for _, round := range p.rounds {
			if complete(round) {
				per = append(per, round[i].elapsed)
			}
		}
		secs = append(secs, median(per))
	}
	r.set("detect_rate", float64(found)/float64(len(w.items)))
	r.set("runs_to_detect_p50", rankMedian(runs))
	r.set("detect_s_p50", rankMedian(secs))
	r.notef("detected %d/%d (bug, seed) pairs", found, len(w.items))
}

// rankMedian is the lower median by rank, so +Inf entries (unfound
// pairs) never interpolate; an infinite median reads -1.
func rankMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return -1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := s[(len(s)-1)/2]
	if math.IsInf(m, 1) {
		return -1
	}
	return m
}

// setupSim is the workload's one-time set-up: validate every item,
// intern the coverage tables and build each item's campaign once
// (discarded) so a bad configuration fails before any timing.
func setupSim(w *simWorkload) error {
	for _, cfg := range w.items {
		if err := cfg.Validate(); err != nil {
			return err
		}
		machine.CoverageTable(cfg.Scenario.Protocol)
		if _, err := core.NewCampaign(cfg); err != nil {
			return err
		}
	}
	return nil
}

func runSim(name string, seed int64, seconds float64, traced bool, sc scale, r *report) error {
	w, err := simWorkloadByName(name, seed, sc)
	if err != nil {
		return err
	}
	setup, err := timeSetup(func() error { return setupSim(w) })
	if err != nil {
		return err
	}
	r.set("setup_s", setup)
	// A traced invocation splits its time: the program as shipped, with
	// its own phase spans on, then the traced replica, which must
	// reproduce the first half's results exactly.
	budget := time.Duration(seconds * float64(time.Second))
	var ps *obs.PhaseStats
	if traced {
		ps = &obs.PhaseStats{}
		budget /= 2
	}
	c0 := cpuSeconds()
	rounds, wall := drive(len(w.items), budget, func(ctx context.Context, i int, memo *collective.Memo) *campaignOut {
		cfg := w.items[i]
		cfg.Memo = memo
		return runPlain(ctx, cfg, ps)
	})
	plain := summarize(w, rounds, wall, r)
	cpu := cpuSeconds() - c0
	r.notef("process CPU %.2fs over %.2fs wall: %.2f of %d workers busy", cpu, wall.Seconds(), cpu/wall.Seconds(), workers)
	setSimEndToEnd(w, plain, r)
	r.set("peak_rss_mb", peakRSSMB())
	if !traced {
		return nil
	}

	acc := &layerAcc{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	trounds, twall := drive(len(w.items), budget, func(ctx context.Context, i int, memo *collective.Memo) *campaignOut {
		return runTraced(ctx, w.items[i], memo, acc)
	})
	runtime.ReadMemStats(&ms1)
	// The replica's operations are a second measurement of the same
	// work, so only its correctness failures join the run's report.
	tr := newReport()
	tp := summarize(w, trounds, twall, tr)
	r.problems = append(r.problems, tr.problems...)
	checkReplica(plain, tp, r)
	acc.set(r, tp, plain, ps.Snapshot())
	r.set("go.allocs_per_testrun", float64(ms1.Mallocs-ms0.Mallocs)/float64(tp.runs))
	r.set("go.alloc_kb_per_testrun", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(tp.runs))
	r.set("fleet.merge_ms", median(plain.mergeMs))
	return nil
}

// checkReplica requires the traced replica to reproduce the program:
// the same canonical digest and the same exact machine counts per item.
func checkReplica(plain, traced *simPhase, r *report) {
	if len(plain.digests) == 0 || len(traced.digests) == 0 {
		r.failf("no complete round to compare the traced replica against")
		return
	}
	ok := true
	for i, d := range traced.digests {
		if d != plain.digests[0] {
			ok = false
			r.failf("traced round %d digest %s differs from the program's %s", i, d, plain.digests[0])
		}
	}
	for i, o := range traced.rounds[0] {
		if p := plain.rounds[0][i]; o != nil && p != nil && o.counts != p.counts {
			ok = false
			r.failf("item %d: traced machine counts %+v differ from the program's %+v", i, o.counts, p.counts)
		}
	}
	if ok {
		r.notef("traced replica reproduces digest %s over %d complete rounds", plain.digests[0], len(traced.digests))
	}
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 9

// timeSetup runs set-up setupReps times and returns the median seconds.
func timeSetup(fn func() error) (float64, error) {
	var ts []float64
	for i := 0; i < setupReps; i++ {
		// Each repetition starts from a collected heap, so a collection
		// the previous one left pending is not billed to it.
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
