package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/memmodel"
	"repro/internal/memsys"
	"repro/oracle"
)

// corpus is oracle-replay's input: one sequence of traces, encoded in
// both framings, with the exact checker's verdict for every position
// and model computed at set-up.
type corpus struct {
	text, binary            []byte
	refs                    [][]verdict // [position][model]
	events                  []int       // events per position
	unique, repeats, litmus int
}

type verdict struct {
	valid        bool
	kind, detail string
}

func verdictOf(r oracle.Result) verdict {
	v := verdict{valid: r.Valid}
	if !r.Valid {
		v.kind, v.detail = r.Kind.String(), r.Detail
	}
	return v
}

// corpusSize is the number of generated (non-litmus) unique traces; a
// quarter as many again are repeats of earlier traces, so the
// collective memo has hits to serve.
const corpusSize = 320

// genExecution builds one random execution by running a small
// operational machine: under mode 0 every store is visible at once
// (sequentially consistent), under mode 1 stores drain in order from a
// per-thread buffer (TSO-like), under mode 2 in any order that keeps
// same-address stores in order (PSO-like), and under mode 3 some reads
// observe a random earlier store instead of the latest (usually
// invalid everywhere). The reference checker, not the mode, decides
// each verdict.
func genExecution(rng *rand.Rand, mode int) (*oracle.Execution, error) {
	b := oracle.NewBuilder()
	nThreads := 2 + rng.Intn(7)
	nAddrs := 2 + rng.Intn(4)
	type op struct {
		kind int // 0 read, 1 write, 2 full fence
		addr memsys.Addr
	}
	progs := make([][]op, nThreads)
	for t := range progs {
		n := 3 + rng.Intn(10)
		for i := 0; i < n; i++ {
			o := op{kind: 0, addr: memsys.Addr(0x1000 + 64*rng.Intn(nAddrs))}
			switch r := rng.Intn(20); {
			case r < 9:
				o.kind = 1
			case r < 10:
				o.kind = 2
			}
			progs[t] = append(progs[t], o)
		}
	}
	type store struct {
		addr memsys.Addr
		val  uint64
	}
	var (
		pc      = make([]int, nThreads)
		buf     = make([][]store, nThreads)
		mem     = map[memsys.Addr]uint64{}
		written = map[memsys.Addr][]uint64{}
		nextVal = uint64(1)
	)
	drain := func(t, i int) {
		s := buf[t][i]
		buf[t] = append(buf[t][:i], buf[t][i+1:]...)
		mem[s.addr] = s.val
	}
	for {
		var runnable, buffered []int
		for t := range progs {
			if pc[t] < len(progs[t]) {
				runnable = append(runnable, t)
			}
			if len(buf[t]) > 0 {
				buffered = append(buffered, t)
			}
		}
		if len(runnable) == 0 && len(buffered) == 0 {
			break
		}
		if len(buffered) > 0 && (len(runnable) == 0 || rng.Intn(2) == 0) {
			t := buffered[rng.Intn(len(buffered))]
			i := 0
			if mode == 2 {
				// Any entry with no older same-address entry.
				i = rng.Intn(len(buf[t]))
				for j := 0; j < i; j++ {
					if buf[t][j].addr == buf[t][i].addr {
						i = j
						break
					}
				}
			}
			drain(t, i)
			continue
		}
		t := runnable[rng.Intn(len(runnable))]
		o := progs[t][pc[t]]
		switch o.kind {
		case 1:
			v := nextVal
			nextVal++
			b.Write(t, o.addr, v)
			written[o.addr] = append(written[o.addr], v)
			if mode == 1 || mode == 2 {
				buf[t] = append(buf[t], store{o.addr, v})
			} else {
				mem[o.addr] = v
			}
		case 2:
			if len(buf[t]) > 0 {
				drain(t, 0)
				continue
			}
			b.Fence(t, memmodel.FenceFull)
		default:
			v, forwarded := mem[o.addr], false
			for i := len(buf[t]) - 1; i >= 0; i-- {
				if buf[t][i].addr == o.addr {
					v, forwarded = buf[t][i].val, true
					break
				}
			}
			if mode == 3 && !forwarded && rng.Intn(4) == 0 {
				if ws := written[o.addr]; len(ws) > 0 && rng.Intn(len(ws)+1) > 0 {
					v = ws[rng.Intn(len(ws))]
				} else {
					v = 0
				}
			}
			b.Read(t, o.addr, v)
		}
		pc[t]++
	}
	return b.Build()
}

// buildCorpus generates the seed's corpus: the litmus classics, then
// corpusSize generated traces, with corpusSize/4 repeats of earlier
// traces interleaved at random positions.
func buildCorpus(seed int64) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	lit, err := oracle.LitmusCorpus()
	if err != nil {
		return nil, err
	}
	models := oracle.Models()
	var seq []*oracle.Trace
	known := map[*oracle.Trace]map[string]bool{}
	for _, e := range lit {
		seq = append(seq, e.Trace)
		known[e.Trace] = e.ForbiddenUnder
	}
	for i := 0; i < corpusSize; i++ {
		x, err := genExecution(rng, i%4)
		if err != nil {
			return nil, fmt.Errorf("generate trace %d: %w", i, err)
		}
		t, err := oracle.TraceFromExecution(fmt.Sprintf("gen-%d", i), x)
		if err != nil {
			return nil, err
		}
		seq = append(seq, t)
	}
	c := &corpus{unique: len(seq), litmus: len(lit)}
	for i := 0; i < corpusSize/4; i++ {
		pos := 1 + rng.Intn(len(seq))
		src := seq[rng.Intn(pos)]
		seq = append(seq[:pos], append([]*oracle.Trace{src}, seq[pos:]...)...)
		c.repeats++
	}

	ref := make([]*oracle.Checker, len(models))
	for m, name := range models {
		if ref[m], err = oracle.NewChecker(name, oracle.Options{Exact: true}); err != nil {
			return nil, err
		}
	}
	for _, t := range seq {
		x, err := t.Execution()
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", t.Name, err)
		}
		row := make([]verdict, len(models))
		for m, name := range models {
			row[m] = verdictOf(ref[m].CheckExecution(x))
			if want, ok := known[t][name]; ok && want == row[m].valid {
				return nil, fmt.Errorf("litmus %s under %s: exact checker says valid=%v, known answer forbidden=%v",
					t.Name, name, row[m].valid, want)
			}
		}
		c.refs = append(c.refs, row)
		c.events = append(c.events, len(x.Events()))
	}
	var tb, bb bytes.Buffer
	if err := oracle.WriteTraces(&tb, seq...); err != nil {
		return nil, err
	}
	if err := oracle.WriteTracesBinary(&bb, seq...); err != nil {
		return nil, err
	}
	c.text, c.binary = tb.Bytes(), bb.Bytes()
	return c, nil
}

func (c *corpus) digest() string {
	h := sha256.New()
	h.Write(c.text)
	h.Write(c.binary)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// oracleSpans is the traced pass's per-layer time.
type oracleSpans struct {
	decode, materialize, signature, check time.Duration
	fast, exact, memo                     time.Duration
	total                                 time.Duration
}

// passResult is one framing pass over the corpus.
type passResult struct {
	traces, events, failed int
	wall                   time.Duration
	latUs                  []float64
	dedupe                 oracle.Dedupe
	fast                   oracle.FastpathStats
	progCheckNs            int64
}

// replay decodes the corpus from one framing and checks every trace
// against every model with fresh checkers (fast path and memo on, as
// oracle.NewChecker defaults), comparing each verdict to the exact
// reference. With sp non-nil it also times each layer call.
func replay(c *corpus, framing string, sp *oracleSpans, r *report) passResult {
	models := oracle.Models()
	data := c.text
	if framing == "binary" {
		data = c.binary
	}
	var out passResult
	chk := make([]*oracle.Checker, len(models))
	for m, name := range models {
		var err error
		if chk[m], err = oracle.NewChecker(name, oracle.Options{}); err != nil {
			r.failf("checker %s: %v", name, err)
			return out
		}
	}
	rd, err := oracle.NewTraceReader(bytes.NewReader(data), framing)
	if err != nil {
		r.failf("%s reader: %v", framing, err)
		return out
	}
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		t, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err == nil && i >= len(c.refs) {
			err = fmt.Errorf("stream holds more than the corpus's %d traces", len(c.refs))
		}
		if err != nil {
			out.failed++
			r.failf("%s decode at trace %d: %v", framing, i, err)
			break
		}
		mark := t0
		if sp != nil {
			lap(&mark, &sp.decode)
		}
		x, err := t.Execution()
		if err != nil {
			out.failed++
			r.failf("%s trace %d: %v", framing, i, err)
			continue
		}
		if sp != nil {
			lap(&mark, &sp.materialize)
		}
		sig := oracle.Signature(x)
		if sp != nil {
			lap(&mark, &sp.signature)
		}
		bad := false
		for m := range models {
			var hits0, valid0 uint64
			if sp != nil {
				hits0, valid0 = chk[m].Dedupe().Hits, chk[m].Fastpath().Valid
			}
			res, _ := chk[m].CheckSig(sig, x)
			if sp != nil {
				t1 := mark
				lap(&mark, &sp.check)
				d := mark.Sub(t1)
				switch {
				case chk[m].Dedupe().Hits > hits0:
					sp.memo += d
				case chk[m].Fastpath().Valid > valid0 && res.Valid:
					sp.fast += d
				default:
					sp.exact += d
				}
			}
			if got := verdictOf(res); got != c.refs[i][m] {
				bad = true
				r.failf("%s trace %d (%s) under %s: verdict %+v, reference %+v", framing, i, t.Name, models[m], got, c.refs[i][m])
			}
		}
		if bad {
			out.failed++
		}
		out.latUs = append(out.latUs, float64(time.Since(t0))/1e3)
		out.traces++
		out.events += c.events[i]
	}
	out.wall = time.Since(start)
	if sp != nil {
		sp.total += out.wall
	}
	if out.traces != len(c.refs) {
		r.failf("%s pass checked %d of %d traces", framing, out.traces, len(c.refs))
	}
	for _, k := range chk {
		out.dedupe.Merge(k.Dedupe())
		out.fast.Merge(k.Fastpath())
		ph := k.Phases()
		out.progCheckNs += ph.FastCheck.Ns + ph.Check.Ns + ph.Memo.Ns
	}
	return out
}

// oraclePhase is every pass one timed phase ran.
type oraclePhase struct {
	passes []passResult
	wall   time.Duration
}

func (p *oraclePhase) totals() (traces, events int, lat []float64) {
	for _, ps := range p.passes {
		traces += ps.traces
		events += ps.events
		lat = append(lat, ps.latUs...)
	}
	return
}

// replayFor runs rounds — a text pass then a binary pass — until the
// budget is spent; the first round always completes.
func replayFor(c *corpus, budget time.Duration, sp *oracleSpans, r *report) *oraclePhase {
	p := &oraclePhase{}
	start := time.Now()
	for len(p.passes) == 0 || time.Since(start) < budget {
		for _, f := range []string{"text", "binary"} {
			p.passes = append(p.passes, replay(c, f, sp, r))
		}
	}
	p.wall = time.Since(start)
	return p
}

func runOracle(seed int64, seconds float64, traced bool, r *report) error {
	var c *corpus
	var digests []string
	setup, err := timeSetup(func() error {
		var err error
		c, err = buildCorpus(seed)
		if err == nil {
			digests = append(digests, c.digest())
		}
		return err
	})
	if err != nil {
		return err
	}
	for _, d := range digests {
		if d != digests[0] {
			r.failf("corpus generation is not deterministic: digests %v", digests)
		}
	}
	r.set("setup_s", setup)
	r.notef("corpus %s: %d traces per pass (%d unique incl. %d litmus, %d repeats), %d text bytes, %d binary bytes",
		digests[0], len(c.refs), c.unique, c.litmus, c.repeats, len(c.text), len(c.binary))
	for m, name := range oracle.Models() {
		valid := 0
		for _, row := range c.refs {
			valid += btoi(row[m].valid)
		}
		r.notef("reference verdicts under %s: %d valid, %d invalid", name, valid, len(c.refs)-valid)
	}

	budget := time.Duration(seconds * float64(time.Second))
	if traced {
		budget /= 2
	}
	plain := replayFor(c, budget, nil, r)
	// attempted and failed count round 0 only, as on the simulation
	// workloads: later rounds repeat it, and any failure there is also
	// a correctness failure.
	for _, ps := range plain.passes[:2] {
		r.attempted += ps.traces
		r.failed += ps.failed
	}
	traces, events, lat := plain.totals()
	secs := plain.wall.Seconds()
	p50 := quantile(lat, 0.5)
	tl, pct := tail(lat)
	r.set("ops_per_s", float64(traces)/secs)
	r.set("op_p50_ms", p50/1e3)
	r.set("op_tail_ms", tl/1e3)
	r.set("instr_per_s", float64(events)/secs)
	r.set("traces_per_s", float64(traces)/secs)
	r.set("trace_p50_us", p50)
	r.set("trace_tail_us", tl)
	r.set("bench.tail_pct", pct)
	r.set("bench.samples", float64(len(lat)))
	r.set("failed_frac", float64(r.failed)/math.Max(1, float64(r.attempted)))
	r.set("peak_rss_mb", peakRSSMB())
	r.notef("%d traces in %d passes over %.2fs; tail is p%.2f of %d samples", traces, len(plain.passes), secs, pct, len(lat))
	// Each pass starts from fresh checkers, so round 0's memo and fast
	// path counts repeat exactly for a seed.
	var ded oracle.Dedupe
	var fp oracle.FastpathStats
	for _, ps := range plain.passes[:2] {
		ded.Merge(ps.dedupe)
		fp.Merge(ps.fast)
	}
	r.set("collective.hit_frac", ded.HitRate())
	r.set("checker.exact_frac", fp.FallbackRate())
	r.notef("round 0 exact totals: %d/%d memo hits, %d checks (%d exact fallbacks)", ded.Hits, ded.Checks, fp.Checks, fp.Fallback)
	if !traced {
		return nil
	}

	sp := &oracleSpans{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tp := replayFor(c, budget, sp, r)
	runtime.ReadMemStats(&ms1)
	ttraces, _, _ := tp.totals()
	per := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(ttraces) }
	r.set("trace.decode_us_per_trace", per(sp.decode))
	r.set("trace.materialize_us_per_trace", per(sp.materialize))
	r.set("collective.signature_us_per_trace", per(sp.signature))
	r.set("oracle.check_us_per_trace", per(sp.check))
	r.set("checker.fast_us", per(sp.fast))
	r.set("checker.exact_us", per(sp.exact))
	r.set("checker.memo_us", per(sp.memo))
	var progNs int64
	for _, ps := range plain.passes {
		progNs += ps.progCheckNs
	}
	r.set("go.allocs_per_testrun", float64(ms1.Mallocs-ms0.Mallocs)/float64(ttraces))
	r.set("go.alloc_kb_per_testrun", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(ttraces))
	attributed := sp.decode + sp.materialize + sp.signature + sp.check
	r.set("bench.unattributed_frac", 1-float64(attributed)/float64(sp.total))
	r.set("bench.trace_overhead", (float64(ttraces)/tp.wall.Seconds())/(float64(traces)/secs))
	agree := per(sp.check) / (float64(progNs) / 1e3 / float64(traces))
	r.set("bench.obs_agreement", agree)
	if !(agree >= 0.5 && agree <= 2) {
		r.failf("traced check time per trace is %.2fx the checker's own obs phases", agree)
	}
	return nil
}
