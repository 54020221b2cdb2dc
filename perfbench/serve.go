package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"roundtriprank"
	"roundtriprank/internal/cliutil"
	"roundtriprank/internal/core"
	"roundtriprank/internal/datasets"
	"roundtriprank/internal/distributed"
	"roundtriprank/internal/graph"
	"roundtriprank/internal/rowserve"
	"roundtriprank/internal/serve"
	"roundtriprank/internal/topk"
	"roundtriprank/internal/walk"
)

// serveStack is rtrankd's handler stack (serve.New inside cliutil.WrapHTTP
// with the default admission limit) fronting stripe workers, every hop over
// loopback HTTP, all inside this process.
type serveStack struct {
	g0         *graph.Graph
	engine     *roundtriprank.Engine
	url        string
	transports []roundtriprank.Transport
	workers    []*http.Server
	// workersDone receives once per worker when its Serve returns.
	workersDone chan struct{}
	cancel      context.CancelFunc
	done        chan error
	client      *http.Client
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// startStack generates the graph, deploys one stripe per worker, builds the
// engine and the serving handler, and warms the stack up: the row view is
// connected, the scratch pool filled and the first epoch served before it
// returns.
func startStack(ctx context.Context, s *spec, w workload) (*serveStack, error) {
	g, err := generate(w.Graph)
	if err != nil {
		return nil, err
	}
	st := &serveStack{g0: g, done: make(chan error, 1), workersDone: make(chan struct{}, w.Workers)}
	st.client = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 256, IdleConnTimeout: time.Minute},
	}
	for i := 0; i < w.Workers; i++ {
		stripe, err := distributed.BuildStripe(g, i, w.Workers)
		if err != nil {
			st.Close()
			return nil, err
		}
		ln, err := listenLoopback()
		if err != nil {
			st.Close()
			return nil, err
		}
		srv := &http.Server{Handler: distributed.NewWorker(stripe).Handler()}
		go func() {
			// Serve returns http.ErrServerClosed once Close stops it.
			_ = srv.Serve(ln)
			st.workersDone <- struct{}{}
		}()
		st.workers = append(st.workers, srv)
		st.transports = append(st.transports, roundtriprank.DialWorker("http://"+ln.Addr().String()))
	}
	metrics := serve.NewMetrics()
	st.engine, err = roundtriprank.NewEngine(g,
		roundtriprank.WithWorkers(st.transports...),
		roundtriprank.WithQueryStatsHook(metrics.RecordQuery))
	if err != nil {
		st.Close()
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	st.cancel = cancel
	handler := cliutil.WrapHTTP(serve.New(st.engine, metrics, serve.Config{Workers: w.Workers, BaseContext: sctx}).Handler(),
		metrics.Registry(), cliutil.HTTPOptions{
			Routes:      serve.Routes(),
			Exempt:      serve.ExemptRoutes(),
			MaxInFlight: 4 * runtime.GOMAXPROCS(0),
			RetryAfter:  time.Second,
		})
	ln, err := listenLoopback()
	if err != nil {
		st.Close()
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	go func() { st.done <- cliutil.Serve(sctx, ln, handler, cliutil.HTTPServerConfig{}) }()

	if err := st.get("/healthz", nil); err != nil {
		st.Close()
		return nil, fmt.Errorf("warmup: %w", err)
	}
	warm := band(g, s.Bands.Median)[:2]
	errs := make([]error, len(warm))
	var wg sync.WaitGroup
	for i, v := range warm {
		wg.Add(1)
		go func(i int, v graph.NodeID) {
			defer wg.Done()
			var out rankResponse
			_, _, errs[i] = st.rank(readBody(v, w, s.K), &out)
		}(i, v)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}
	return st, nil
}

// Close stops the serving handler and the workers and waits for them.
func (st *serveStack) Close() {
	if st.cancel != nil {
		st.cancel()
		<-st.done
	}
	for _, srv := range st.workers {
		srv.Close()
	}
	for range st.workers {
		<-st.workersDone
	}
	st.client.CloseIdleConnections()
}

func (st *serveStack) get(path string, out any) error {
	resp, err := st.client.Get(st.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// post sends a JSON body and decodes a 200 answer into out; it returns the
// status code.
func (st *serveStack) post(path string, body []byte, out any) (int, error) {
	resp, err := st.client.Post(st.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// Rollover retry policy of the load generator's reads. A 2sbound-remote read
// in flight while a write rolls the fleet to a new epoch fails with 502 by
// design (its worker's stripe moved under it; see docs/OPERATIONS.md), and
// the documented client response is to retry, which re-plans on the new
// epoch. The retry is part of the read's latency; the backoff doubles from
// rolloverBackoff up to rolloverMaxBackoff so waiting reads do not flood the
// server while it redeploys.
const (
	rolloverRetries    = 60
	rolloverBackoff    = 5 * time.Millisecond
	rolloverMaxBackoff = 320 * time.Millisecond
)

// rank sends one read, retrying 502 answers; it returns the final status and
// the number of retries.
func (st *serveStack) rank(body []byte, out *rankResponse) (status, retries int, err error) {
	backoff := rolloverBackoff
	for {
		status, err = st.post("/rank", body, out)
		if status != http.StatusBadGateway || retries == rolloverRetries {
			return status, retries, err
		}
		retries++
		time.Sleep(backoff)
		backoff = min(2*backoff, rolloverMaxBackoff)
	}
}

// Wire forms of /rank and /v1/edges (see internal/serve).
type rankResponse struct {
	Results []struct {
		Node  graph.NodeID `json:"node"`
		Score float64      `json:"score"`
	} `json:"results"`
	Rows *struct {
		Fetched     int64 `json:"fetched"`
		RPCs        int64 `json:"rpcs"`
		CacheHits   int64 `json:"cache_hits"`
		CacheMisses int64 `json:"cache_misses"`
	} `json:"rows"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

type edgeSpec struct {
	From       string `json:"from"`
	To         string `json:"to"`
	Undirected bool   `json:"undirected,omitempty"`
}

type nodeSpec struct {
	Type  string `json:"type"`
	Label string `json:"label"`
}

type mutateRequest struct {
	AddNodes []nodeSpec `json:"add_nodes"`
	Set      []edgeSpec `json:"set"`
}

type mutateResponse struct {
	Epoch           uint64  `json:"epoch"`
	StripesShipped  int     `json:"stripes_shipped"`
	StripesRetagged int     `json:"stripes_retagged"`
	ElapsedMS       float64 `json:"elapsed_ms"`
}

// readBody is the /rank request of one read.
func readBody(v graph.NodeID, w workload, k int) []byte {
	// Marshalling a map of numbers and strings cannot fail.
	b, _ := json.Marshal(map[string]any{"nodes": []graph.NodeID{v}, "k": k, "method": w.Method, "epsilon": w.Epsilon})
	return b
}

// genWrite builds the j-th write: one new paper shaped like the generator's
// papers and placed where they are. It copies a seeded template paper's
// venue, terms and authors (undirected, weight 1) and cites the template and
// some of the papers it cites (directed), so the new paper stays inside one
// topic's neighbourhood instead of bridging random parts of the graph.
func genWrite(rng *rand.Rand, g *graph.Graph, papers []graph.NodeID, seed int64, j int) mutateRequest {
	label := fmt.Sprintf("paper:bench-s%d-w%d", seed, j)
	var m mutateRequest
	m.AddNodes = append(m.AddNodes, nodeSpec{g.TypeName(datasets.TypePaper), label})
	tmpl := papers[rng.Intn(len(papers))]
	cites := []string{g.Label(tmpl)}
	cols, _ := g.OutNeighbors(tmpl)
	for _, v := range cols {
		switch g.Type(v) {
		case datasets.TypeVenue, datasets.TypeTerm, datasets.TypeAuthor:
			m.Set = append(m.Set, edgeSpec{From: label, To: g.Label(v), Undirected: true})
		case datasets.TypePaper:
			if rng.Intn(2) == 0 {
				cites = append(cites, g.Label(v))
			}
		}
	}
	for _, to := range cites {
		m.Set = append(m.Set, edgeSpec{From: label, To: to})
	}
	return m
}

// delta stages a write against base exactly as the server's /v1/edges
// handler does: nodes first, then edges in order.
func (m mutateRequest) delta(base *graph.Graph) (*graph.Delta, error) {
	d := graph.NewDelta(base)
	for _, n := range m.AddNodes {
		t, err := cliutil.TypeByName(base, n.Type)
		if err != nil {
			return nil, err
		}
		d.AddNode(t, n.Label)
	}
	for _, e := range m.Set {
		from, to := d.NodeByLabel(e.From), d.NodeByLabel(e.To)
		if from == graph.NoNode || to == graph.NoNode {
			return nil, fmt.Errorf("write edge %s -> %s: unknown label", e.From, e.To)
		}
		var err error
		if e.Undirected {
			err = d.SetUndirectedEdge(from, to, 1)
		} else {
			err = d.SetEdge(from, to, 1)
		}
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// serveOp is one scheduled request of the open loop and its outcome. Times
// are offsets from the start of the loop.
type serveOp struct {
	write           bool
	node            graph.NodeID // reads
	w               int          // writes: index into the write batches
	due, sent, recv time.Duration
	status          int
	retries         int
	err             error
	seq             int // reads: index of the read in the run
	traced          bool
	read            rankResponse
	mut             mutateResponse
	// Verification results (reads).
	verified bool
	recall   float64
}

// schedule lays out the open loop: arrivals at the workload's fixed rate,
// blocks of ten operations with the writes at fixed positions, reads cycling
// through the seeded pass and writes taking the seeded batches in order. It
// covers the measured duration and at least minReads reads.
func schedule(w workload, pass []query, seconds float64, minReads int) []serveOp {
	n := int(math.Ceil(w.RatePerS * seconds))
	readsPer10 := 10 - w.WritesPer10
	if need := (minReads*10 + readsPer10 - 1) / readsPer10; n < need {
		n = need
	}
	n = (n + 9) / 10 * 10
	ops := make([]serveOp, 0, n)
	interval := 1 / w.RatePerS
	reads, writes := 0, 0
	for len(ops) < n {
		// Writes sit at evenly spaced positions of each block, so every run
		// has the same read/write interleaving and the seed moves only
		// which queries and batches arrive.
		block := make([]bool, 10)
		for i := 0; i < w.WritesPer10; i++ {
			block[(2*i+1)*10/(2*w.WritesPer10)] = true
		}
		for _, isWrite := range block {
			t := (float64(len(ops)) + 0.5) * interval
			op := serveOp{write: isWrite, due: time.Duration(t * float64(time.Second))}
			if isWrite {
				op.w = writes
				writes++
			} else {
				op.node = pass[reads%len(pass)].node
				op.seq = reads
				reads++
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// runServe measures bibnet-serve.
func runServe(ctx context.Context, s *spec, w workload, o options) (*report, error) {
	rep := newReport()
	st, err := repeatSetup(s, rep, func() (*serveStack, error) { return startStack(ctx, s, w) }, (*serveStack).Close)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	g0 := st.g0
	rep.notes = append(rep.notes, fmt.Sprintf("graph: %d nodes, %d edges (%s)", g0.NumNodes(), g0.NumEdges(), w.Representation))

	rng := rand.New(rand.NewSource(o.seed))
	pass, err := buildPass(g0, s, w, rng)
	if err != nil {
		return nil, err
	}
	if o.capacity > 0 {
		// A closed loop needs more operations than the open loop's rate
		// schedules; the loop stops at o.seconds.
		w.RatePerS = 100 * float64(o.capacity)
	}
	ops := schedule(w, pass, o.seconds, s.minReads(w))
	var batches []mutateRequest
	papers := g0.NodesOfType(datasets.TypePaper)
	for _, op := range ops {
		if op.write {
			batches = append(batches, genWrite(rng, g0, papers, o.seed, op.w))
		}
	}
	bodies := make([][]byte, len(batches))
	for j, m := range batches {
		if bodies[j], err = json.Marshal(m); err != nil {
			return nil, err
		}
	}
	if o.capacity > 0 {
		return nil, measureCapacity(st, w, s, ops, bodies, o)
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	backlog, wall := openLoop(ops, func(k int, op *serveOp) {
		// Traced runs trace every write and every other read, shifting by
		// one read each pass, so both halves of the reads see the same mix
		// and a query read in two passes is traced in one of them.
		op.traced = tr != nil && (op.write || (op.seq+op.seq/len(pass))%2 == 0)
		name := "http.rank"
		if op.write {
			name = "http.edges"
		}
		id := -1
		if op.traced {
			id = tr.begin(name, int64(k), -1)
		}
		if op.write {
			op.status, op.err = st.post("/v1/edges", bodies[op.w], &op.mut)
		} else {
			op.status, op.retries, op.err = st.rank(readBody(op.node, w, s.K), &op.read)
		}
		if op.traced {
			tr.end(id)
		}
	})

	var epochInfo struct {
		Epoch       uint64 `json:"epoch"`
		Fingerprint string `json:"fingerprint"`
	}
	if err := st.get("/v1/epoch", &epochInfo); err != nil {
		return nil, err
	}
	commitMS, err := verifyServe(ctx, s, w, g0, ops, batches, epochInfo.Fingerprint, rep)
	if err != nil {
		return nil, err
	}

	var readLat, writeLat, hops, lateness, rec, traced, plain []float64
	var shed, retried int
	var fetched, rpcs, hits, misses int64
	var shipped, retagged []float64
	var redeploy []float64
	var lastRecv time.Duration
	reads := 0
	for k := range ops {
		op := &ops[k]
		rep.attempted++
		lastRecv = max(lastRecv, op.recv)
		lateness = append(lateness, ms(op.sent-op.due))
		if op.status == http.StatusTooManyRequests {
			shed++
		}
		retried += op.retries
		if op.err != nil {
			rep.fail("op %d (%s): %v", k, map[bool]string{true: "write", false: "read"}[op.write], op.err)
			continue
		}
		lat := ms(op.recv - op.due)
		if op.write {
			writeLat = append(writeLat, lat)
			shipped = append(shipped, float64(op.mut.StripesShipped))
			retagged = append(retagged, float64(op.mut.StripesRetagged))
			if c, ok := commitMS[op.mut.Epoch]; ok {
				redeploy = append(redeploy, op.mut.ElapsedMS-c)
			}
			continue
		}
		if !op.verified {
			continue // counted by verifyServe
		}
		reads++
		readLat = append(readLat, lat)
		rec = append(rec, op.recall)
		hops = append(hops, ms(op.recv-op.sent)-op.read.ElapsedMS)
		if op.traced {
			traced = append(traced, lat)
		} else {
			plain = append(plain, lat)
		}
		if r := op.read.Rows; r != nil {
			fetched += r.Fetched
			rpcs += r.RPCs
			hits += r.CacheHits
			misses += r.CacheMisses
		}
	}
	rep.set("reads_per_s", float64(reads)/lastRecv.Seconds(), reads)
	rep.set("read_p50_ms", quantile(readLat, 0.50), len(readLat))
	rep.set("read_p95_ms", quantile(readLat, 0.95), len(readLat))
	rep.set("recall_at_10", mean(rec), len(rec))
	rep.notes = append(rep.notes,
		fmt.Sprintf("open loop: %d ops (%d writes) at %.1f/s over %.2fs; generator lateness p95 %.3f ms, max %.3f ms; backlog at end of arrivals %d",
			len(ops), len(batches), w.RatePerS, wall.Seconds(), quantile(lateness, 0.95), quantile(lateness, 1), backlog),
		fmt.Sprintf("writes: p50 %.3f ms, p90 %.3f ms (n=%d); reads retried after a rollover 502: %d times", quantile(writeLat, 0.5), quantile(writeLat, 0.9), len(writeLat), retried))

	if !o.trace {
		return rep, nil
	}
	rep.set("trace.overhead_ms", orZero(median(traced)-median(plain)), len(traced))
	rep.set("serve.hop_ms", median(hops), len(hops))
	rep.set("serve.shed", float64(shed), len(ops))
	rep.set("serve.rollover_retries", float64(retried), len(ops))
	rep.set("serve.write_p50_ms", quantile(writeLat, 0.5), len(writeLat))
	rep.set("serve.write_p90_ms", quantile(writeLat, 0.9), len(writeLat))
	rep.set("load.late_p95_ms", quantile(lateness, 0.95), len(lateness))
	rep.set("load.backlog_end", float64(backlog), 1)
	rep.set("rowserve.fetched_per_read", float64(fetched)/float64(max(reads, 1)), reads)
	rep.set("rowserve.rpcs_per_read", float64(rpcs)/float64(max(reads, 1)), reads)
	rep.set("rowserve.hit_rate", float64(hits)/float64(max(hits+misses, 1)), int(hits+misses))
	rs := st.engine.RowServeStats()
	rep.set("rowserve.evictions", float64(rs.CacheEvictions), 1)
	rep.set("rowserve.retries", float64(rs.RowRetries), 1)
	var commits []float64
	for _, c := range commitMS {
		commits = append(commits, c)
	}
	rep.set("graph.commit_ms", median(commits), len(commits))
	rep.set("distributed.redeploy_ms", median(redeploy), len(redeploy))
	rep.set("distributed.stripes_shipped", mean(shipped), len(shipped))
	rep.set("distributed.stripes_retagged", mean(retagged), len(retagged))
	footprint(rep, g0, false)
	if err := replayServe(ctx, s, w, st, pass, tr, rep); err != nil {
		return nil, err
	}
	path, err := writeTrace(tr, o)
	if err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, "trace: "+path)
	return rep, nil
}

// openLoop sends every op at its due time, each on its own goroutine, and
// waits for all of them. It returns the number of ops still in flight when
// the last one was sent (the backlog at the end of the arrivals) and the
// wall time of the whole loop.
func openLoop(ops []serveOp, do func(k int, op *serveOp)) (int, time.Duration) {
	start := time.Now()
	var inflight atomic.Int64
	var wg sync.WaitGroup
	for k := range ops {
		op := &ops[k]
		if d := op.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		op.sent = time.Since(start)
		inflight.Add(1)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			do(k, op)
			op.recv = time.Since(start)
			inflight.Add(-1)
		}(k)
	}
	backlog := int(inflight.Load())
	wg.Wait()
	return backlog, time.Since(start)
}

// verifyServe replays the committed writes on a local graph in epoch order
// and checks every read against a local TwoSBound answer on an epoch that
// was being served while the read was in flight: the read must be
// bit-identical to one of them. Verified reads get their recall against the
// exact oracle of that epoch. It returns the local graph.Commit time of each
// epoch's write, and checks the final graph's fingerprint against the
// server's.
func verifyServe(ctx context.Context, s *spec, w workload, g0 *graph.Graph, ops []serveOp, batches []mutateRequest, serverFP string, rep *report) (map[uint64]float64, error) {
	base := g0.Epoch()
	byEpoch := map[uint64]int{} // epoch -> write batch index
	var writes []*serveOp
	for k := range ops {
		op := &ops[k]
		if op.write && op.err == nil {
			byEpoch[op.mut.Epoch] = op.w
			writes = append(writes, op)
		}
	}
	final := base + uint64(len(writes))
	for e := base + 1; e <= final; e++ {
		if _, ok := byEpoch[e]; !ok {
			return nil, fmt.Errorf("server epochs are not consecutive: no write committed epoch %d", e)
		}
	}
	// Each read's candidate epochs: from the newest write acknowledged before
	// it was sent to the newest write sent before it returned.
	type cand struct {
		op     *serveOp
		lo, hi uint64
	}
	var reads []cand
	for k := range ops {
		op := &ops[k]
		if op.write || op.err != nil {
			continue
		}
		c := cand{op: op, lo: base, hi: base}
		for _, wr := range writes {
			if wr.recv < op.sent {
				c.lo = max(c.lo, wr.mut.Epoch)
			}
			if wr.sent < op.recv {
				c.hi = max(c.hi, wr.mut.Epoch)
			}
		}
		reads = append(reads, c)
	}

	m, err := roundtriprank.ParseMethod("2sbound")
	if err != nil {
		return nil, err
	}
	commitMS := map[uint64]float64{}
	cur := g0
	for e := base; ; e++ {
		local, err := roundtriprank.NewEngine(cur)
		if err != nil {
			return nil, err
		}
		var todo []cand
		for _, c := range reads {
			if !c.op.verified && c.lo <= e && e <= c.hi {
				todo = append(todo, c)
			}
		}
		err = parallel(2, len(todo), func(j int) error {
			op := todo[j].op
			resp, err := local.Rank(ctx, w.request(op.node, m, s.K))
			if err != nil {
				return err
			}
			if !sameAnswer(resp.Results, op.read) {
				return nil
			}
			want, err := oracleTopK(ctx, cur, op.node, s)
			if err != nil {
				return err
			}
			op.verified, op.recall = true, recall(resp.Results, want)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if e == final {
			break
		}
		d, err := batches[byEpoch[e+1]].delta(cur)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		next, err := graph.Commit(cur, d)
		if err != nil {
			return nil, err
		}
		commitMS[e+1] = ms(time.Since(start))
		cur = next
	}
	for _, c := range reads {
		if !c.op.verified {
			rep.wrongAnswer("read of node %d at epochs %d..%d is not bit-identical to a local TwoSBound answer", c.op.node, c.lo, c.hi)
		}
	}
	if fp := fmt.Sprintf("%08x", graph.GraphFingerprint(cur)); fp != serverFP {
		rep.attempted++
		rep.wrongAnswer("replayed final graph fingerprint %s, server serves %s", fp, serverFP)
	}
	return commitMS, nil
}

// sameAnswer reports whether a served read equals a local answer bit for bit.
func sameAnswer(local []roundtriprank.Result, served rankResponse) bool {
	if len(local) != len(served.Results) {
		return false
	}
	for i, r := range local {
		if r.Node != served.Results[i].Node || math.Float64bits(r.Score) != math.Float64bits(served.Results[i].Score) {
			return false
		}
	}
	return true
}

// replayServe replays each distinct read query of the pass through the
// layers under the HTTP hop: Engine.Rank on the serving engine, a warm
// topk.TopKRows over a rowserve session of the same fleet, and local
// topk.TopK on the same graph.
func replayServe(ctx context.Context, s *spec, w workload, st *serveStack, pass []query, tr *tracer, rep *report) error {
	m, err := roundtriprank.ParseMethod(w.Method)
	if err != nil {
		return err
	}
	g, ok := st.engine.View().(*graph.Graph)
	if !ok {
		return fmt.Errorf("serving engine view is %T", st.engine.View())
	}
	rc, err := rowserve.Connect(ctx, st.transports, nil)
	if err != nil {
		return err
	}
	env := &inprocEnv{engine: st.engine, method: m}
	rep.set("engine.allocs_per_read", allocsPerRank(ctx, s, w, env, pass), 8)
	distinct := distinctNodes(pass)
	counts := make([]opCounts, len(distinct))
	params := core.DefaultParams()
	err = parallel(2, len(distinct), func(j int) error {
		v := distinct[j]
		op := int64(replayOpBase + j)
		q, err := walk.SingleNode(v).Normalize()
		if err != nil {
			return err
		}
		opt := topk.Options{K: s.K, Epsilon: w.Epsilon, Alpha: params.Walk.Alpha, Beta: params.Beta,
			Scheme: topk.Scheme2SBound, Keep: func(u graph.NodeID) bool { return u != v }}
		var rerr error
		tr.do("engine.Rank", op, -1, func(int) { _, rerr = st.engine.Rank(ctx, w.request(v, m, s.K)) })
		if rerr != nil {
			return rerr
		}
		// The first session fills the replay's row cache; the traced one is
		// the warm read the serving path mostly sees.
		if _, err := topk.TopKRows(ctx, rc.Session(ctx), q, opt); err != nil {
			return err
		}
		tr.do("rowserve.TopKRows", op, -1, func(int) { _, rerr = topk.TopKRows(ctx, rc.Session(ctx), q, opt) })
		if rerr != nil {
			return rerr
		}
		var res *topk.Result
		tr.do("topk.TopK", op, -1, func(int) { res, rerr = topk.TopK(ctx, g, q, opt) })
		if rerr != nil {
			return rerr
		}
		counts[j] = opCounts{rounds: res.Rounds, touched: res.Touched, fseen: res.FSeen, tseen: res.TSeen,
			certK: res.CertifiedK, converged: res.Converged}
		return nil
	})
	if err != nil {
		return err
	}
	lt := tr.fold()
	over := diffPerOp(lt.dur["rowserve.TopKRows"], lt.dur["topk.TopK"])
	rep.set("rowserve.overhead_ms", median(over), len(over))
	eng := diffPerOp(lt.dur["engine.Rank"], lt.dur["rowserve.TopKRows"])
	rep.set("engine.overhead_ms", median(eng), len(eng))
	onlineMetrics(rep, lt, counts)
	return nil
}

// measureCapacity runs the workload's operation mix as a closed loop with
// o.capacity clients for o.seconds and prints the achieved rate; the open
// loop's rate is set near half of it.
func measureCapacity(st *serveStack, w workload, s *spec, ops []serveOp, bodies [][]byte, o options) error {
	var next, done atomic.Int64
	var failed atomic.Int64
	dur := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < o.capacity; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				op := ops[i]
				var err error
				if op.write {
					var out mutateResponse
					_, err = st.post("/v1/edges", bodies[op.w], &out)
				} else {
					var out rankResponse
					_, _, err = st.rank(readBody(op.node, w, s.K), &out)
				}
				if err != nil && failed.Add(1) == 1 {
					fmt.Println("capacity: first failure:", err)
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	el := time.Since(start).Seconds()
	fmt.Printf("capacity: %d clients, %d ops (%d failed) in %.2fs = %.2f ops/s\n",
		o.capacity, done.Load(), failed.Load(), el, float64(done.Load())/el)
	return nil
}
