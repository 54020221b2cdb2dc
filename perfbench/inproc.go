package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"roundtriprank"
	"roundtriprank/internal/bca"
	"roundtriprank/internal/bounds"
	"roundtriprank/internal/core"
	"roundtriprank/internal/datasets"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/topk"
	"roundtriprank/internal/walk"
)

// inprocEnv is the state one in-process workload measures.
type inprocEnv struct {
	// flat is the generated graph; view is what the engine serves (flat, or
	// its graph.Pack on rmat-packed).
	flat   *graph.Graph
	view   roundtriprank.View
	engine *roundtriprank.Engine
	method roundtriprank.Method
}

// generate builds the workload's flat graph from its spec.
func generate(gs graphSpec) (*graph.Graph, error) {
	switch gs.Kind {
	case "bibnet":
		cfg := datasets.ScaledBibNetConfig(gs.Scale)
		cfg.Seed = gs.GenSeed
		net, err := datasets.GenerateBibNet(cfg)
		if err != nil {
			return nil, err
		}
		return net.Graph, nil
	case "rmat":
		cfg := datasets.DefaultRMATConfig(gs.Nodes)
		cfg.Seed = gs.GenSeed
		if gs.EdgeFactor > 0 {
			cfg.EdgeFactor = gs.EdgeFactor
		}
		r, err := datasets.GenerateRMAT(cfg)
		if err != nil {
			return nil, err
		}
		return r.Graph, nil
	}
	return nil, fmt.Errorf("unknown graph kind %q", gs.Kind)
}

// request is the engine request of one read of the workload.
func (w workload) request(v graph.NodeID, m roundtriprank.Method, k int) roundtriprank.Request {
	return roundtriprank.Request{
		Query:   roundtriprank.MultiNode(v),
		K:       k,
		Method:  m,
		Epsilon: w.Epsilon,
		Filter:  &roundtriprank.Filter{ExcludeQuery: true},
	}
}

// setupInProcess generates, packs, builds the engine and warms it up: the
// scratch pool holds one searcher per client and the kernel pool is running
// before timing starts.
func setupInProcess(ctx context.Context, s *spec, w workload) (*inprocEnv, error) {
	g, err := generate(w.Graph)
	if err != nil {
		return nil, err
	}
	env := &inprocEnv{flat: g, view: g}
	if w.Representation == "packed" {
		env.view = graph.Pack(g)
		env.flat = nil // the packed workload holds only its packed form
	}
	if env.method, err = roundtriprank.ParseMethod(w.Method); err != nil {
		return nil, err
	}
	if env.engine, err = roundtriprank.NewEngine(env.view); err != nil {
		return nil, err
	}
	warm := band(g, s.Bands.Median)[0]
	var wg sync.WaitGroup
	errs := make([]error, w.Clients)
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = env.engine.Rank(ctx, w.request(warm, env.method, s.K))
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}
	return env, nil
}

// repeatSetup runs setup s.SetupRepeats times, releasing all but the last
// result (release may be nil), and reports the median wall time as setup_s
// and the live heap after a forced GC as heap_mb.
func repeatSetup[T any](s *spec, rep *report, setup func() (T, error), release func(T)) (T, error) {
	var env T
	var times []float64
	for i := 0; i < max(s.SetupRepeats, 1); i++ {
		if i > 0 && release != nil {
			release(env)
		}
		var zero T
		env = zero
		runtime.GC()
		start := time.Now()
		e, err := setup()
		if err != nil {
			return env, err
		}
		times = append(times, time.Since(start).Seconds())
		env = e
	}
	rep.set("setup_s", median(times), len(times))
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.set("heap_mb", float64(ms.HeapAlloc)/(1<<20), 1)
	return env, nil
}

// oracleTopK is the exact reference answer: core.Compute at the spec's
// oracle tolerance, top K with the query excluded, zero scores trimmed.
func oracleTopK(ctx context.Context, g graph.View, v graph.NodeID, s *spec) ([]graph.NodeID, error) {
	wp := walk.DefaultParams()
	wp.Tol = s.OracleTol
	sc, err := core.Compute(ctx, g, walk.SingleNode(v), core.Params{Walk: wp, Beta: core.BalancedBeta})
	if err != nil {
		return nil, err
	}
	var out []graph.NodeID
	for _, r := range core.TopN(sc.R, s.K, func(u graph.NodeID) bool { return u != v }) {
		if r.Score > 0 {
			out = append(out, r.Node)
		}
	}
	return out, nil
}

// recall is |got ∩ want| / |want| over node IDs.
func recall(got []roundtriprank.Result, want []graph.NodeID) float64 {
	if len(want) == 0 {
		return 1
	}
	in := map[graph.NodeID]bool{}
	for _, r := range got {
		in[r.Node] = true
	}
	hit := 0
	for _, v := range want {
		if in[v] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// sample is one completed read of a closed loop.
type sample struct {
	q      query
	lat    time.Duration
	traced bool
	resp   *roundtriprank.Response
	err    error
}

// closedLoop runs clients that each take the next query of the repeating
// pass as soon as their previous one returns. Issuing stops at the first
// whole-pass boundary after both dur has elapsed and minOps reads were
// issued, so every run measures whole passes of the same query mix. It
// returns the samples in pass order.
func closedLoop(clients int, pass []query, minOps int, dur time.Duration, do func(i int, q query) sample) []sample {
	var (
		mu      sync.Mutex
		next    int
		limit   = -1
		samples []sample
	)
	start := time.Now()
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		i := next
		if limit < 0 && i >= minOps && time.Since(start) >= dur {
			limit = (i + len(pass) - 1) / len(pass) * len(pass)
		}
		if limit >= 0 && i >= limit {
			return -1
		}
		next++
		return i
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := claim(); i >= 0; i = claim() {
				s := do(i, pass[i%len(pass)])
				mu.Lock()
				for len(samples) <= i {
					samples = append(samples, sample{})
				}
				samples[i] = s
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples
}

// runInProcess measures one of the in-process workloads (bibnet-online,
// bibnet-auto, rmat-packed).
func runInProcess(ctx context.Context, s *spec, w workload, o options) (*report, error) {
	rep := newReport()
	env, err := repeatSetup(s, rep, func() (*inprocEnv, error) { return setupInProcess(ctx, s, w) }, nil)
	if err != nil {
		return nil, err
	}
	// The oracle (and the flat reference engine of the packed workload) are
	// built after heap_mb was taken: they are the benchmark's, not the
	// workload's.
	flat := env.flat
	if flat == nil {
		if flat, err = generate(w.Graph); err != nil {
			return nil, err
		}
	}
	rep.notes = append(rep.notes, fmt.Sprintf("graph: %d nodes, %d edges (%s)", flat.NumNodes(), flat.NumEdges(), w.Representation))
	rng := rand.New(rand.NewSource(o.seed))
	pass, err := buildPass(flat, s, w, rng)
	if err != nil {
		return nil, err
	}
	oracle := map[graph.NodeID][]graph.NodeID{}
	var flatExact map[graph.NodeID][]roundtriprank.Result
	var flatEngine *roundtriprank.Engine
	if w.Representation == "packed" {
		flatExact = map[graph.NodeID][]roundtriprank.Result{}
		if flatEngine, err = roundtriprank.NewEngine(flat); err != nil {
			return nil, err
		}
	}
	var nodes []graph.NodeID
	for _, q := range pass {
		if _, ok := oracle[q.node]; !ok {
			oracle[q.node] = nil
			nodes = append(nodes, q.node)
		}
	}
	// The reference answers are untimed; compute them two at a time.
	oracles := make([][]graph.NodeID, len(nodes))
	exacts := make([][]roundtriprank.Result, len(nodes))
	err = parallel(2, len(nodes), func(j int) error {
		var err error
		if oracles[j], err = oracleTopK(ctx, flat, nodes[j], s); err != nil {
			return err
		}
		if flatEngine != nil {
			resp, err := flatEngine.Rank(ctx, w.request(nodes[j], roundtriprank.Exact, s.K))
			if err != nil {
				return err
			}
			exacts[j] = resp.Results
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for j, v := range nodes {
		oracle[v] = oracles[j]
		if flatEngine != nil {
			flatExact[v] = exacts[j]
		}
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	passLen := len(pass)
	samples := closedLoop(w.Clients, pass, s.minReads(w), time.Duration(o.seconds*float64(time.Second)), func(i int, q query) sample {
		// Traced runs trace every other read, shifting by one each pass, so
		// both halves see the same query mix (a run may be a single pass)
		// and a query read in two passes is traced in one of them; the
		// halves' medians give the tracing overhead.
		traced := tr != nil && (i+i/passLen)%2 == 0
		id := -1
		if traced {
			id = tr.begin("engine.Rank", int64(i), -1)
		}
		start := time.Now()
		resp, err := env.engine.Rank(ctx, w.request(q.node, env.method, s.K))
		lat := time.Since(start)
		if traced {
			tr.end(id)
		}
		return sample{q: q, lat: lat, traced: traced, resp: resp, err: err}
	})

	// Correctness and end-to-end metrics.
	var lats, rec, tracedLats, plainLats []float64
	for i, sm := range samples {
		rep.attempted++
		if sm.err != nil {
			rep.fail("read %d (node %d): %v", i, sm.q.node, sm.err)
			continue
		}
		want := oracle[sm.q.node]
		if !checkInProcess(rep, w, i, sm, want, flatExact) {
			continue
		}
		l := ms(sm.lat)
		lats = append(lats, l)
		rec = append(rec, recall(sm.resp.Results, want))
		if sm.traced {
			tracedLats = append(tracedLats, l)
		} else {
			plainLats = append(plainLats, l)
		}
	}
	if w.Representation == "packed" {
		checkPackedFootprint(rep, flat, env.view.(*graph.Packed))
	}
	// Closed-loop throughput by Little's law: clients / mean latency. It is
	// the rate the clients sustain while all of them are busy, so the drain
	// at the end of the last pass (one client idle while a slow query
	// finishes) does not count.
	busy := 0.0
	for _, l := range lats {
		busy += l / 1000
	}
	rep.set("reads_per_s", float64(w.Clients*len(lats))/busy, len(lats))
	rep.set("read_p50_ms", quantile(lats, 0.50), len(lats))
	rep.set("read_p95_ms", quantile(lats, 0.95), len(lats))
	rep.set("recall_at_10", mean(rec), len(rec))
	rep.notes = append(rep.notes, fmt.Sprintf("loop: %d reads in %d passes of %d", len(samples), len(samples)/max(passLen, 1), passLen))

	if o.trace {
		rep.set("trace.overhead_ms", orZero(median(tracedLats)-median(plainLats)), len(tracedLats))
		if err := replayInProcess(ctx, s, w, env, pass, tr, rep); err != nil {
			return nil, err
		}
		footprint(rep, flat, w.Representation == "packed")
		path, err := writeTrace(tr, o)
		if err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes, "trace: "+path)
	}
	return rep, nil
}

// checkInProcess applies the workload's correctness check to one answer and
// reports whether it passed.
func checkInProcess(rep *report, w workload, i int, sm sample, want []graph.NodeID, flatExact map[graph.NodeID][]roundtriprank.Result) bool {
	got := sm.resp.Results
	switch {
	case w.Path == "online":
		// Soundness of the certificate: the certified prefix is the exact
		// top-K prefix.
		ck := sm.resp.CertifiedK
		if ck > len(want) || ck > len(got) {
			rep.wrongAnswer("read %d (node %d): certified %d of %d results, oracle has %d", i, sm.q.node, ck, len(got), len(want))
			return false
		}
		for j := 0; j < ck; j++ {
			if got[j].Node != want[j] {
				rep.wrongAnswer("read %d (node %d): certified rank %d is node %d, oracle has %d", i, sm.q.node, j, got[j].Node, want[j])
				return false
			}
		}
	case w.Representation == "packed":
		ref := flatExact[sm.q.node]
		if len(ref) != len(got) {
			rep.wrongAnswer("read %d (node %d): packed exact returned %d results, flat %d", i, sm.q.node, len(got), len(ref))
			return false
		}
		for j := range ref {
			if got[j] != ref[j] {
				rep.wrongAnswer("read %d (node %d): rank %d packed %+v, flat %+v (not bit-identical)", i, sm.q.node, j, got[j], ref[j])
				return false
			}
		}
	default:
		if len(got) != len(want) {
			rep.wrongAnswer("read %d (node %d): %d results, oracle has %d", i, sm.q.node, len(got), len(want))
			return false
		}
		for j := range want {
			if got[j].Node != want[j] {
				rep.wrongAnswer("read %d (node %d): rank %d is node %d, oracle has %d", i, sm.q.node, j, got[j].Node, want[j])
				return false
			}
		}
	}
	return true
}

// checkPackedFootprint re-checks the packed-CSR size guard: packed bytes per
// edge stay at most 0.70 of flat.
func checkPackedFootprint(rep *report, flat *graph.Graph, p *graph.Packed) {
	ratio := float64(p.SizeBytes()) / float64(flat.SizeBytes())
	if ratio > 0.70 {
		rep.attempted++
		rep.wrongAnswer("packed footprint is %.3f of flat, guard is 0.70", ratio)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("packed/flat footprint: %.4f (guard <= 0.70)", ratio))
}

// footprint reports bytes per edge of the flat representation and, when the
// workload runs on it, of the packed one.
func footprint(rep *report, flat *graph.Graph, packed bool) {
	e := float64(flat.NumEdges())
	rep.set("graph.flat_bytes_per_edge", float64(flat.SizeBytes())/e, 1)
	if packed {
		rep.set("graph.packed_bytes_per_edge", float64(graph.Pack(flat).SizeBytes())/e, 1)
	}
}

// opCounts are the per-replayed-query counters of the online layers.
type opCounts struct {
	rounds, touched, fseen, tseen, certK, pushes int
	converged                                    bool
}

// replayInProcess replays each distinct query of the pass through the public
// functions of the layers under Engine.Rank, with a span around every call,
// and derives the per-layer metrics from the spans.
func replayInProcess(ctx context.Context, s *spec, w workload, env *inprocEnv, pass []query, tr *tracer, rep *report) error {
	distinct := distinctNodes(pass)
	rep.set("engine.allocs_per_read", allocsPerRank(ctx, s, w, env, pass), min(len(distinct), 8))
	counts := make([]opCounts, len(distinct))
	err := parallel(w.Clients, len(distinct), func(j int) error {
		v := distinct[j]
		op := int64(replayOpBase + j)
		var rerr error
		tr.do("engine.Rank", op, -1, func(int) {
			_, rerr = env.engine.Rank(ctx, w.request(v, env.method, s.K))
		})
		if rerr != nil {
			return rerr
		}
		if w.Path == "exact" {
			return replayExact(ctx, s, env.view, v, op, tr)
		}
		c, err := replayOnline(ctx, s, w, env.view.(graph.CSRView), v, op, tr)
		counts[j] = c
		return err
	})
	if err != nil {
		return err
	}
	lt := tr.fold()
	inner := "topk.TopK"
	if w.Path == "exact" {
		inner = "core"
		rep.set("walk.frank_ms", median(perOp(lt.dur["walk.FRank"])), len(lt.dur["walk.FRank"]))
		rep.set("walk.trank_ms", median(perOp(lt.dur["walk.TRank"])), len(lt.dur["walk.TRank"]))
		rep.set("core.combine_topn_ms", median(perOp(lt.self["core"])), len(lt.self["core"]))
	} else {
		onlineMetrics(rep, lt, counts)
	}
	over := diffPerOp(lt.dur["engine.Rank"], lt.dur[inner])
	rep.set("engine.overhead_ms", median(over), len(over))
	return nil
}

// replayOpBase separates replay operation ids from loop operation ids.
const replayOpBase = 1 << 30

// replayQueries caps the distinct queries a traced run replays layer by
// layer; the pass order is shuffled, so the first ones keep the class mix.
const replayQueries = 50

// distinctNodes returns the first replayQueries distinct query nodes of the
// pass, in pass order.
func distinctNodes(pass []query) []graph.NodeID {
	seen := map[graph.NodeID]bool{}
	var out []graph.NodeID
	for _, q := range pass {
		if !seen[q.node] && len(out) < replayQueries {
			seen[q.node] = true
			out = append(out, q.node)
		}
	}
	return out
}

// allocsPerRank is the median malloc count of one Engine.Rank call, measured
// one call at a time on up to 8 non-hub queries.
func allocsPerRank(ctx context.Context, s *spec, w workload, env *inprocEnv, pass []query) float64 {
	var allocs []float64
	for _, q := range pass {
		if q.class == "hub" || len(allocs) == 8 {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := env.engine.Rank(ctx, w.request(q.node, env.method, s.K))
		runtime.ReadMemStats(&after)
		if err == nil {
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		}
	}
	return orZero(median(allocs))
}

// replayExact replays core.Compute + core.TopN from its public parts: one
// "core" span whose children are the concurrent walk.FRank and walk.TRank
// solves (as core.Compute runs them), so the span's self time is
// core.Combine + core.TopN.
func replayExact(ctx context.Context, s *spec, view graph.View, v graph.NodeID, op int64, tr *tracer) error {
	p := core.DefaultParams()
	q := walk.SingleNode(v)
	id := tr.begin("core", op, -1)
	var (
		t    []float64
		terr error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		tr.do("walk.TRank", op, id, func(int) { t, terr = walk.TRank(ctx, view, q, p.Walk) })
	}()
	var f []float64
	var ferr error
	tr.do("walk.FRank", op, id, func(int) { f, ferr = walk.FRank(ctx, view, q, p.Walk) })
	<-done
	if ferr != nil || terr != nil {
		tr.end(id)
		return fmt.Errorf("replay node %d: %v %v", v, ferr, terr)
	}
	core.TopN(core.Combine(f, t, p.Beta), s.K, func(u graph.NodeID) bool { return u != v })
	tr.end(id)
	return nil
}

// replayOnline replays one online query: topk.TopK as the engine runs it,
// then the bounds stages outside topk (FFlat/TFlat with Stage II off, Expand
// then Refine per round, for the rounds topk reported) and the BCA pushes
// (bca.Flat.ProcessBest at the F-side width per round).
func replayOnline(ctx context.Context, s *spec, w workload, view graph.CSRView, v graph.NodeID, op int64, tr *tracer) (opCounts, error) {
	var c opCounts
	params := core.DefaultParams()
	q, err := walk.SingleNode(v).Normalize()
	if err != nil {
		return c, err
	}
	var res *topk.Result
	tr.do("topk.TopK", op, -1, func(int) {
		res, err = topk.TopK(ctx, view, q, topk.Options{
			K: s.K, Epsilon: w.Epsilon, Alpha: params.Walk.Alpha, Beta: params.Beta,
			Scheme: topk.Scheme2SBound, Keep: func(u graph.NodeID) bool { return u != v },
		})
	})
	if err != nil {
		return c, err
	}
	c = opCounts{rounds: res.Rounds, touched: res.Touched, fseen: res.FSeen, tseen: res.TSeen,
		certK: res.CertifiedK, converged: res.Converged}

	fOpt := bounds.DefaultFOptions(params.Walk.Alpha)
	tOpt := bounds.DefaultTOptions(params.Walk.Alpha)
	fOpt.StageII, tOpt.StageII = false, false
	var fb bounds.FFlat
	var tb bounds.TFlat
	id := tr.begin("bounds.replay", op, -1)
	if err := fb.Init(view, q, fOpt); err != nil {
		return c, err
	}
	if err := tb.Init(view, q, tOpt); err != nil {
		return c, err
	}
	for r := 0; r < res.Rounds; r++ {
		tr.do("bounds.stage1", op, id, func(int) { fb.Expand(); tb.Expand() })
		tr.do("bounds.stage2", op, id, func(int) { fb.Refine(); tb.Refine() })
	}
	tr.end(id)

	var b bca.Flat
	tr.do("bca.ProcessBest", op, -1, func(int) {
		if err = b.Init(view, q, params.Walk.Alpha); err != nil {
			return
		}
		for r := 0; r < res.Rounds; r++ {
			c.pushes += b.ProcessBest(fOpt.M)
		}
	})
	return c, err
}

// onlineMetrics reports the topk, bounds and bca layer metrics from the
// replayed queries' counters and spans.
func onlineMetrics(rep *report, lt layerTimes, counts []opCounts) {
	var rounds, touched, fseen, tseen, certK, pushes, conv []float64
	for _, c := range counts {
		rounds = append(rounds, float64(c.rounds))
		touched = append(touched, float64(c.touched))
		fseen = append(fseen, float64(c.fseen))
		tseen = append(tseen, float64(c.tseen))
		certK = append(certK, float64(c.certK))
		pushes = append(pushes, float64(c.pushes))
		if c.converged {
			conv = append(conv, 1)
		} else {
			conv = append(conv, 0)
		}
	}
	n := len(rounds)
	rep.set("topk.rounds", orZero(mean(rounds)), n)
	rep.set("topk.touched", orZero(mean(touched)), n)
	rep.set("topk.fseen", orZero(mean(fseen)), n)
	rep.set("topk.tseen", orZero(mean(tseen)), n)
	rep.set("topk.certified_k", orZero(mean(certK)), n)
	rep.set("topk.converged_frac", orZero(mean(conv)), n)
	_, peak := topk.PoolStats()
	rep.set("topk.pool_peak", float64(peak), 1)
	search := lt.dur["topk.TopK"]
	rep.set("topk.search_ms", orZero(median(perOp(search))), len(search))

	// The bounds and bca replays run only on the local online workload.
	s1, s2 := lt.dur["bounds.stage1"], lt.dur["bounds.stage2"]
	if len(s1) == 0 {
		return
	}
	rep.set("bca.pushes", orZero(mean(pushes)), n)
	stages := map[int64]float64{}
	var sum1, sum2 float64
	for op, x := range s1 {
		stages[op] += x
		sum1 += x
	}
	for op, x := range s2 {
		stages[op] += x
		sum2 += x
	}
	cand := diffPerOp(search, stages)
	rep.set("topk.candidate_ms", orZero(median(cand)), len(cand))
	rep.set("bounds.stage1_ms", orZero(median(perOp(s1))), len(s1))
	rep.set("bounds.stage2_ms", orZero(median(perOp(s2))), len(s2))
	share := 0.0
	if sum1+sum2 > 0 {
		share = sum2 / (sum1 + sum2)
	}
	rep.set("bounds.stage2_share", share, len(s2))
	rep.set("bca.push_ms", orZero(median(perOp(lt.dur["bca.ProcessBest"]))), len(lt.dur["bca.ProcessBest"]))
}

// parallel runs fn(0..n-1) on the given number of goroutines and returns the
// first error.
func parallel(workers, n int, fn func(j int) error) error {
	var (
		mu   sync.Mutex
		next int
		errs []error
		wg   sync.WaitGroup
	)
	for w := 0; w < max(workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				j := next
				next++
				mu.Unlock()
				if j >= n {
					return
				}
				if err := fn(j); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}
