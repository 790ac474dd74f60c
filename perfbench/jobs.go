package main

import (
	"context"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/core"
	"proxygraph/internal/engine"
	"proxygraph/internal/exp"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/partition"
	"proxygraph/internal/rng"
	"proxygraph/internal/service"
	"proxygraph/internal/workload"
)

// clients is the closed loop's caller count: each submits its next job only
// after Wait returns the previous one.
const clients = 2

// proxyScale divides the Table II proxy graphs for the proxy profiler.
const proxyScale = 256

// seqLen is the length of the pre-drawn job sequence; runs wrap around it.
const seqLen = 4096

// digestPrefix is how many leading jobs of the sequence sim_digest covers.
const digestPrefix = 32

// Seed domains keep the benchmark's derived streams apart.
const (
	domainSet     = 0x736574 // "set": graph sets
	domainOrder   = 0x6f7264 // "ord": job order
	domainIngress = 0x696e67 // "ing": fresh per-job ingress seeds
	domainProxy   = 0x707279 // "pry": proxy graphs
	domainGraph   = 0x67726f // "gro": evolve-chain base graph
	domainDelta   = 0x646c74 // "dlt": evolve-chain deltas
)

// tenants follow cmd/serve's defaults; the two clients submit as the first
// two.
var tenants = []service.Tenant{{Name: "gold", Priority: 2}, {Name: "silver", Priority: 1}, {Name: "bronze"}}

// jobsConfig is one service workload.
type jobsConfig struct {
	scale int  // Table II graphs at 1/scale
	sets  int  // graph sets drawn per run, each the four Table II graphs
	proxy bool // proxy-profiled CCRs instead of the thread-count prior
	// fresh draws a new ingress seed for every job, so no placement repeats.
	fresh   bool
	part    func() partition.Partitioner
	appList func(g *graph.Graph) []apps.App // the apps run on g
	cacheMB int64                           // cache byte bound in MiB (0 = none)
}

var jobsConfigs = map[string]jobsConfig{
	"jobs-warm": {scale: 1024, sets: 8, proxy: true, part: func() partition.Partitioner { return partition.NewHybrid() },
		appList: paperApps},
	"jobs-cold": {scale: 1024, sets: 8, fresh: true, part: func() partition.Partitioner { return partition.NewGinger() },
		appList: traversalApps, cacheMB: 16},
}

// paperApps are the paper's four applications.
func paperApps(*graph.Graph) []apps.App { return apps.All() }

// traversalApps are BFS and SSSP rooted at g's highest-degree vertex (a
// fixed root such as vertex 0 can be isolated, which makes the job trivial on
// some seeds) and connected components.
func traversalApps(g *graph.Graph) []apps.App {
	deg := make([]int, g.NumVertices)
	for _, e := range g.Edges {
		deg[e.Src]++
		deg[e.Dst]++
	}
	hub := 0
	for v, d := range deg {
		if d > deg[hub] {
			hub = v
		}
	}
	bfs, sssp := apps.NewBFS(), apps.NewSSSP()
	bfs.Source, sssp.Source = graph.VertexID(hub), graph.VertexID(hub)
	return []apps.App{bfs, sssp, apps.NewConnectedComponents()}
}

// jobInputs is everything a service workload submits, derived from the seed.
type jobInputs struct {
	graphs []*graph.Graph
	seq    []workload.Job // timed sequence: shuffled blocks of every (app, graph) pair
	warm   []workload.Job // one job per pair
}

// makeJobInputs draws cfg.sets sets of the Table II graphs, with their
// ingress seeds, through workload.RandomJobs; then it orders the (app,
// graph) pairs in shuffled blocks so every run submits the same mix. Several
// small sets average out how much one generated graph's structure moves the
// cost of its jobs.
func makeJobInputs(cfg jobsConfig, seed uint64, tr *tracer) (*jobInputs, error) {
	specs := gen.RealGraphs()
	in := &jobInputs{}
	var ingress []uint64
	for set := range cfg.sets {
		setSeed := rng.Hash3(seed, domainSet, uint64(set))
		sp := tr.begin("gen.generate", -1, -1)
		drawn, err := workload.RandomJobs(256, cfg.scale, setSeed)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		for _, s := range specs {
			name := s.Scale(cfg.scale).Name
			i := slices.IndexFunc(drawn, func(j workload.Job) bool { return j.Graph.Name == name })
			if i < 0 {
				return nil, fmt.Errorf("set seed %d draws no job on %s", setSeed, name)
			}
			in.graphs = append(in.graphs, drawn[i].Graph)
			ingress = append(ingress, drawn[i].Seed)
		}
	}
	type pair struct {
		app apps.App
		gi  int
	}
	var pairs []pair
	for gi, g := range in.graphs {
		for _, a := range cfg.appList(g) {
			pairs = append(pairs, pair{a, gi})
		}
	}
	src := rand.New(rand.NewPCG(seed, domainOrder))
	job := func(p pair, n int) workload.Job {
		s := ingress[p.gi]
		if cfg.fresh {
			s = rng.Hash3(seed, domainIngress, uint64(n))
		}
		return workload.Job{App: p.app, Graph: in.graphs[p.gi], Seed: s}
	}
	for _, p := range pairs {
		in.warm = append(in.warm, job(p, len(in.warm)+seqLen))
	}
	for len(in.seq) < seqLen {
		for _, k := range src.Perm(len(pairs)) {
			in.seq = append(in.seq, job(pairs[k], len(in.seq)))
		}
	}
	in.seq = in.seq[:seqLen]
	return in, nil
}

// recordingEstimator delegates to a CCR estimator, remembers each CCR it
// returned (the output gate recomputes jobs with the same shares) and times
// every estimate as core.profile.
type recordingEstimator struct {
	inner core.Estimator
	tr    *tracer
	mu    sync.Mutex
	ccrs  map[string]core.CCR
}

func (r *recordingEstimator) Name() string { return r.inner.Name() }

func (r *recordingEstimator) Estimate(cl *cluster.Cluster, app apps.App) (core.CCR, error) {
	sp := r.tr.begin("core.profile", -1, -1)
	c, err := r.inner.Estimate(cl, app)
	r.tr.end(sp)
	if err == nil {
		r.mu.Lock()
		r.ccrs[app.Name()] = c
		r.mu.Unlock()
	}
	return c, err
}

func (r *recordingEstimator) shares(cl *cluster.Cluster, app apps.App) ([]float64, error) {
	r.mu.Lock()
	c, ok := r.ccrs[app.Name()]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("no CCR recorded for %s", app.Name())
	}
	return c.SharesFor(cl)
}

// jobsRig is one set-up service workload.
type jobsRig struct {
	cfg         jobsConfig
	cl          *cluster.Cluster
	in          *jobInputs
	est         *recordingEstimator
	cache       *workload.PlacementCache
	journal     *timedJournal
	journalPath string // "" for an in-memory journal
	svc         *service.Service
	warmOps     []opRecord
}

func (r *jobsRig) close() {
	r.svc.Close()
	r.journal.Close()
}

// setupJobs builds one rig: inputs, CCR pool (profiling for proxy
// workloads), service, and a warm-up pass over every (app, graph) pair. The
// service journals to a FileJournal in dir, or to a MemJournal when dir is
// empty: fsync latency on a shared disk swung service throughput on 1/4096
// graphs 2x between runs, so untraced runs keep the journal's encoding work
// and leave the disk out, and the traced run times durable appends.
func setupJobs(cfg jobsConfig, seed uint64, dir string, tr *tracer) (*jobsRig, error) {
	cl := exp.Case2Cluster()
	in, err := makeJobInputs(cfg, seed, tr)
	if err != nil {
		return nil, err
	}
	est := &recordingEstimator{inner: core.NewThreadCount(), tr: tr, ccrs: map[string]core.CCR{}}
	if cfg.proxy {
		sp := tr.begin("core.profile", -1, -1)
		pp, err := core.NewProxyProfiler(proxyScale, rng.Hash2(seed, domainProxy))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		est.inner = pp
	}
	var j service.Journal = service.NewMemJournal()
	path := ""
	if dir != "" {
		path = filepath.Join(dir, "journal")
		if j, _, err = service.OpenFileJournal(path); err != nil {
			return nil, err
		}
	}
	r := &jobsRig{cfg: cfg, cl: cl, in: in, est: est, journal: &timedJournal{inner: j}, journalPath: path,
		// Entry bound: cmd/serve's default, or every warm-up placement.
		cache: workload.NewBoundedPlacementCache(max(64, len(in.warm)), cfg.cacheMB<<20)}
	r.svc, err = service.New(service.Config{
		Cluster: cl, Estimator: est, Partitioner: cfg.part(), Cache: r.cache, ChargeIngress: true,
		Tenants: tenants, MaxRetries: 3, BreakerThreshold: 5, BreakerCooldown: 5,
		Workers: clients, Seed: seed, Journal: r.journal,
	})
	if err != nil {
		j.Close()
		return nil, err
	}
	warm := serviceLoop(r.svc, in.warm, len(in.warm), 0, nil)
	for _, op := range warm.ops {
		if !op.ok {
			r.close()
			return nil, fmt.Errorf("warm-up job %d failed", op.job)
		}
	}
	r.warmOps = warm.ops
	return r, nil
}

// opRecord is one closed-loop op.
type opRecord struct {
	job int // index into the submitted job list
	id  int // service job id (0 when rejected)
	opSample
	ok bool
}

type loopStats struct {
	ops     []opRecord
	start   time.Time
	elapsed float64
}

func (l loopStats) okSamples() []opSample {
	var xs []opSample
	for _, op := range l.ops {
		if op.ok {
			xs = append(xs, op.opSample)
		}
	}
	return xs
}

// serviceLoop runs the closed loop: clients callers submit jobs[i mod len]
// in index order until limit ops were taken (limit > 0) or dur elapsed
// (dur > 0), each waiting for its previous job to finish.
func serviceLoop(svc *service.Service, jobs []workload.Job, limit int, dur time.Duration, tr *tracer) loopStats {
	ctx := context.Background()
	var next atomic.Int64
	per := make([][]opRecord, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if dur > 0 && time.Since(start) >= dur {
					return
				}
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				op := tr.begin("op", -1, -1)
				sub := tr.begin("service.submit", op, -1)
				t0 := time.Now()
				id, err := svc.Submit(ctx, tenants[c].Name, jobs[i%len(jobs)])
				tr.end(sub)
				rec := opRecord{job: i}
				if err == nil {
					tr.setOp(op, id)
					tr.setOp(sub, id)
					st, err := svc.Wait(ctx, id)
					rec.id = id
					rec.ok = err == nil && st.State == service.StateDone.String()
				}
				rec.lat = time.Since(t0).Seconds()
				rec.end = time.Since(start).Seconds()
				tr.end(op)
				per[c] = append(per[c], rec)
			}
		}()
	}
	wg.Wait()
	out := loopStats{start: start, elapsed: time.Since(start).Seconds()}
	for _, p := range per {
		out.ops = append(out.ops, p...)
	}
	return out
}

// runJobs runs one service workload.
func runJobs(cfg jobsConfig, o options) (*outcome, error) {
	if o.trace {
		return traceJobs(cfg, o)
	}
	rig, setups, err := repeatSetup(func() (*jobsRig, error) { return setupJobs(cfg, o.seed, "", nil) },
		(*jobsRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	loop := serviceLoop(rig.svc, rig.in.seq, 0, o.dur(), nil)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out := &outcome{setups: setups, peakRSS: rss, phaseStart: loop.start}
	out.samples, out.attempted = loop.okSamples(), len(loop.ops)
	if err := rig.verify(loop, out); err != nil {
		return nil, err
	}
	return out, nil
}

// jobKey identifies a job's simulated work.
type jobKey struct {
	app   string
	graph *graph.Graph
	seed  uint64
}

func keyOf(j workload.Job) jobKey { return jobKey{j.App.Name(), j.Graph, j.Seed} }

// verify is the output gate: every completed service job's charges must be
// bit-identical to a cache-free recomputation, and triangle totals must match
// the independent counter. It also fills sim_digest and the exact counts.
func (r *jobsRig) verify(loop loopStats, out *outcome) error {
	type check struct {
		job workload.Job
		id  int
	}
	var checks []check
	for _, op := range r.warmOps {
		checks = append(checks, check{r.in.warm[op.job], op.id})
	}
	for _, op := range loop.ops {
		if op.ok {
			checks = append(checks, check{r.in.seq[op.job%len(r.in.seq)], op.id})
		} else {
			out.failed++
		}
	}
	jobsOf := map[jobKey]workload.Job{}
	var keys []jobKey
	add := func(j workload.Job) {
		k := keyOf(j)
		if _, ok := jobsOf[k]; !ok {
			jobsOf[k] = j
			keys = append(keys, k)
		}
	}
	for _, j := range r.in.seq[:digestPrefix] {
		add(j)
	}
	for _, c := range checks {
		add(c.job)
	}
	directs := make([]direct, len(keys))
	err := parallelDo(len(keys), clients, func(i int) error {
		j := jobsOf[keys[i]]
		shares, err := r.est.shares(r.cl, j.App)
		if err != nil {
			return err
		}
		directs[i], err = runDirect(r.cfg.part(), r.cl, j.App, j.Graph, shares, j.Seed)
		return err
	})
	if err != nil {
		return fmt.Errorf("direct recomputation: %w", err)
	}
	byKey := make(map[jobKey]direct, len(keys))
	for i, k := range keys {
		byKey[k] = directs[i]
	}
	// Triangle totals must match the independent counter; every op of a
	// key with a wrong total is a wrong-output op.
	truth := map[*graph.Graph]int64{}
	badKey := map[jobKey]bool{}
	for i, k := range keys {
		t := directs[i].triangles
		if t < 0 {
			continue
		}
		want, ok := truth[k.graph]
		if !ok {
			want = countTriangles(k.graph)
			truth[k.graph] = want
		}
		if t != want {
			badKey[k] = true
			out.wrong(fmt.Sprintf("triangle_count on %s: %d, independent count %d", k.graph.Name, t, want))
		}
	}
	for _, c := range checks {
		st, err := r.svc.Status(c.id)
		if err != nil {
			return err
		}
		res, err := r.svc.Result(c.id)
		if err != nil {
			return err
		}
		got, err := chargeOf(res, st.IngressSeconds)
		if err != nil {
			return err
		}
		d := byKey[keyOf(c.job)]
		want := d.charge
		if !st.CacheHit {
			want.Ingress = d.ingress
		}
		if badKey[keyOf(c.job)] {
			out.failed++
		} else if got != want || st.ExecSeconds != res.SimSeconds || st.EnergyJoules != res.EnergyJoules {
			out.failed++
			out.wrong(fmt.Sprintf("job %d (%s on %s): service %v, direct %v", c.id, c.job.App.Name(), c.job.Graph.Name, got, want))
		}
	}
	var dg digest
	reps := 0.0
	for _, j := range r.in.seq[:digestPrefix] {
		d := byKey[keyOf(j)]
		dg.charge(d.charge)
		dg.float(d.ingress)
		out.supersteps += d.Supersteps
		out.gathers += d.Gathers
		reps += d.replication
	}
	out.simDigest = uint64(dg)
	out.replication = reps / digestPrefix
	out.verified = len(checks)
	return nil
}

// traceJobs is the traced run of a service workload. One set-up (spans on
// gen and core), then three equal phases: the service untraced (the
// reference for tracing overhead and runtime metrics), the service with the
// timing journal and submit spans, and the same closed loop driven through
// the calls the service's workers make (cache or partitioner, ingress, each
// app's Run) with a span on each.
func traceJobs(cfg jobsConfig, o options) (*outcome, error) {
	tr := newTracer()
	rig, err := setupJobs(cfg, o.seed, o.tmp, tr)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	phase := o.dur() / 3
	rows := map[string]float64{}

	rt0 := readRuntime()
	a := serviceLoop(rig.svc, rig.in.seq, 0, phase, nil)
	maps.Copy(rows, runtimeRows(rt0, readRuntime(), len(a.ops)))
	rows["trace.untraced_ops_per_s"] = float64(len(a.okSamples())) / a.elapsed

	heap0 := liveHeap()
	cs0, ctr0 := rig.cache.Stats(), rig.svc.Counters()
	fi0, err := os.Stat(rig.journalPath)
	if err != nil {
		return nil, err
	}
	rig.journal.tr.Store(tr)
	b := serviceLoop(rig.svc, rig.in.seq, 0, phase, tr)
	rig.journal.tr.Store(nil)
	spansB := tr.snapshot()
	done := len(b.okSamples())
	fi1, err := os.Stat(rig.journalPath)
	if err != nil {
		return nil, err
	}
	cs1, ctr1 := rig.cache.Stats(), rig.svc.Counters()
	heap1 := liveHeap()
	rows["trace.traced_ops_per_s"] = float64(done) / b.elapsed
	rows["trace.overhead_frac"] = 1 - rows["trace.traced_ops_per_s"]/rows["trace.untraced_ops_per_s"]
	if done > 0 {
		rows["service.heap_kb_per_job"] = (heap1 - heap0) / float64(done) / 1024
		rows["service.journal_bytes_per_job"] = float64(fi1.Size()-fi0.Size()) / float64(done)
	}
	lookups := float64(cs1.Hits + cs1.Misses - cs0.Hits - cs0.Misses)
	if lookups > 0 {
		rows["workload.cache_hit_ratio"] = float64(cs1.Hits-cs0.Hits) / lookups
	}
	if m := cs1.Misses - cs0.Misses; m > 0 {
		rows["workload.ingress_wall_ms"] = (cs1.IngressWallSeconds - cs0.IngressWallSeconds) * 1e3 / float64(m)
	}
	rows["workload.cache_mb"] = float64(cs1.Bytes) / (1 << 20)
	rows["service.failed_attempts"] = float64(failedAttempts(ctr1) - failedAttempts(ctr0))
	var waits []float64
	for _, op := range b.ops {
		if op.ok {
			st, err := rig.svc.Status(op.id)
			if err != nil {
				return nil, err
			}
			waits = append(waits, st.QueueWaitSeconds)
		}
	}
	rows["service.queue_wait_p50_ms"] = quantile(waits, 0.5) * 1e3
	rows["service.queue_wait_p90_ms"] = quantile(waits, 0.9) * 1e3

	c, err := rig.directLoop(phase, tr)
	if err != nil {
		return nil, err
	}
	rows["trace.direct_ops_per_s"] = float64(c.ops) / c.elapsed
	if c.runWall > 0 {
		rows["engine.gathers_per_s"] = c.gathers / c.runWall
	}

	spans := tr.snapshot()
	spansC := spans[len(spansB):]
	attachJournalSpans(spansB)
	stats := byName(spans)
	rows["gen.generate_ms"] = totalMs(stats, "gen.generate")
	rows["core.profile_ms"] = totalMs(stats, "core.profile")
	rows["service.submit_us"] = p50ms(stats, "service.submit") * 1e3
	rows["service.journal_append_us"] = p50ms(stats, "service.journal_append") * 1e3
	rows["partition.apply_ms"] = p50ms(stats, "partition.apply")
	rows["engine.ingress_ms"] = p50ms(stats, "engine.ingress")
	rows["workload.fingerprint_ms"] = p50ms(stats, "workload.fingerprint")
	for _, name := range appRunRows {
		rows["apps."+name+".run_ms"] = p50ms(stats, "apps."+name+".run")
	}
	maps.Copy(rows, selfPerOp(spansB, len(b.ops), []string{"service"}))
	maps.Copy(rows, selfPerOp(spansC, c.ops, []string{"workload", "partition", "engine", "apps"}))
	if err := tr.write(filepath.Join(o.build, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))); err != nil {
		return nil, err
	}

	out := &outcome{layerRows: rows}
	if err := rig.verify(loopStats{ops: append(slices.Clone(a.ops), b.ops...)}, out); err != nil {
		return nil, err
	}
	out.attempted = len(a.ops) + len(b.ops) + c.ops
	return out, nil
}

func failedAttempts(c service.Counters) uint64 {
	return c.Retries + c.RejectedOverload + c.RejectedBreaker + c.RejectedBudget +
		c.ShedPriority + c.ShedDeadline + c.RejectedDegraded + c.Failed
}

// directStats summarizes the direct-drive phase.
type directStats struct {
	ops              int
	elapsed, runWall float64 // seconds
	gathers          float64
}

// directLoop drives the job sequence through the layers the service's
// workers call, with the service's client shape and a span on each call.
func (r *jobsRig) directLoop(dur time.Duration, tr *tracer) (directStats, error) {
	part := r.cfg.part()
	shares := map[string][]float64{}
	for _, j := range r.in.warm {
		s, err := r.est.shares(r.cl, j.App)
		if err != nil {
			return directStats{}, err
		}
		shares[j.App.Name()] = s
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		st   directStats
		errs []error
		wg   sync.WaitGroup
	)
	start := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				j := r.in.seq[i%len(r.in.seq)]
				run, res, err := r.directOp(part, j, shares[j.App.Name()], i, tr)
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				st.ops++
				st.runWall += run
				st.gathers += res.Gathers
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start).Seconds()
	if len(errs) > 0 {
		return st, errs[0]
	}
	return st, nil
}

// directOp is one job driven directly; it returns the app run's wall
// seconds and result.
func (r *jobsRig) directOp(part partition.Partitioner, j workload.Job, shares []float64, i int, tr *tracer) (float64, *engine.Result, error) {
	op := tr.begin("op", -1, i)
	defer tr.end(op)
	sp := tr.begin("workload.fingerprint", op, i)
	workload.GraphFingerprint(j.Graph)
	tr.end(sp)
	var (
		pl  *engine.Placement
		hit bool
		err error
	)
	if r.cfg.fresh {
		sp = tr.begin("partition.apply", op, i)
		pl, err = partition.Apply(part, j.Graph, shares, j.Seed)
	} else {
		sp = tr.begin("workload.place", op, i)
		pl, hit, err = r.cache.Place(part, j.Graph, shares, j.Seed)
	}
	tr.end(sp)
	if err != nil {
		return 0, nil, err
	}
	if !hit {
		sp = tr.begin("engine.ingress", op, i)
		_, err = engine.Ingress(pl, r.cl)
		tr.end(sp)
		if err != nil {
			return 0, nil, err
		}
	}
	sp = tr.begin("apps."+j.App.Name()+".run", op, i)
	t0 := time.Now()
	res, err := j.App.Run(pl, r.cl)
	wall := time.Since(t0).Seconds()
	tr.end(sp)
	return wall, res, err
}

// appRunRows are the apps whose Run p50 the traced run reports.
var appRunRows = []string{"triangle_count", "pagerank", "coloring", "connected_components", "bfs", "sssp",
	"pagerank_resume", "connected_components_resume"}
