package main

import (
	"fmt"
	"maps"
	"math"
	"path/filepath"
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
	"proxygraph/internal/workload"
)

// The chain evolves evolveBases citation graphs at 1/evolveScale. Each
// chain runs chainLen batches on one base and the next chain moves to the
// next base, starting again from the base version with fresh deltas: every
// op sees a graph of the same size, and several bases average out how much
// one generated graph's structure moves the cost of a batch.
const (
	evolveScale = 512
	evolveBases = 16
	chainLen    = 4
)

// pageRank is PageRank run to its tolerance-stopped fixed point. The resume
// envelope (2·tol/(1−damping) of a cold run) holds only between converged
// runs, and the default 20-superstep cap stops short of convergence on the
// citation graph.
func pageRank() *apps.PageRank {
	pr := apps.NewPageRank()
	pr.MaxIters = 1000
	return pr
}

// evolveRig is the evolving-graph workload: EvolveStudy's configuration
// (Case 2, HDRF, proxy-estimated connected-components shares) driven
// through chains of mutation batches.
type evolveRig struct {
	seed   uint64
	cl     *cluster.Cluster
	shares []float64
	part   *partition.HDRF
	bases  []*evolveBase
}

// evolveBase is one base graph with its own placement cache (holding the
// base and the versions of the chain on it) and its cold outputs.
type evolveBase struct {
	g           *graph.Graph
	ingressSeed uint64
	inserts     int
	cache       *workload.PlacementCache
	pl          *engine.Placement
	labels      []uint32
	ranks       []float64
}

func setupEvolve(seed uint64, tr *tracer) (*evolveRig, error) {
	cl := exp.Case2Cluster()
	r := &evolveRig{seed: seed, cl: cl, part: partition.NewHDRF()}
	sp := tr.begin("core.profile", -1, -1)
	ccr, err := func() (core.CCR, error) {
		pp, err := core.NewProxyProfiler(proxyScale, rng.Hash2(seed, domainProxy))
		if err != nil {
			return core.CCR{}, err
		}
		return pp.Estimate(cl, apps.NewConnectedComponents())
	}()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if r.shares, err = ccr.SharesFor(cl); err != nil {
		return nil, err
	}
	for i := range evolveBases {
		b := &evolveBase{ingressSeed: rng.Hash3(seed, domainIngress, uint64(i)),
			cache: workload.NewBoundedPlacementCache(chainLen+1, 0)}
		sp := tr.begin("gen.generate", -1, -1)
		b.g, err = gen.Generate(gen.RealGraphs()[1].Scale(evolveScale), rng.Hash3(seed, domainGraph, uint64(i)))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		b.inserts = max(1, len(b.g.Edges)/100)
		if b.pl, _, err = b.cache.Place(r.part, b.g, r.shares, b.ingressSeed); err != nil {
			return nil, err
		}
		cc, err := apps.NewConnectedComponents().Run(b.pl, cl)
		if err != nil {
			return nil, err
		}
		b.labels = cc.Output.(apps.Components).Labels
		pr, err := pageRank().Run(b.pl, cl)
		if err != nil {
			return nil, err
		}
		b.ranks = pr.Output.([]float64)
		r.bases = append(r.bases, b)
	}
	return r, nil
}

// version is one point of a chain: a graph, its placement and the resumed
// outputs on it.
type version struct {
	chain, k int // chain number, batches applied
	base     *evolveBase
	g        *graph.Graph
	pl       *engine.Placement
	labels   []uint32
	ranks    []float64
}

func (r *evolveRig) chainStart(chain int) version {
	b := r.bases[chain%len(r.bases)]
	return version{chain: chain, base: b, g: b.g, pl: b.pl, labels: b.labels, ranks: b.ranks}
}

// delta draws the next batch: about 1% of |E| inserted, and on every 4th
// batch about 1% deleted.
func (r *evolveRig) delta(v version) (*graph.Delta, error) {
	k := v.k + 1
	deletes := 0
	if k%4 == 0 {
		deletes = v.base.inserts
	}
	return gen.RandomDelta(v.g, gen.DeltaSpec{Inserts: v.base.inserts, Deletes: deletes, Time: uint64(k)},
		rng.Hash3(r.seed, domainDelta, uint64(v.chain*chainLen+k)))
}

// batchResult is one op's outcome.
type batchResult struct {
	next    version
	cc, pr  *engine.Result
	runWall float64 // seconds in the two resumed runs
}

// step is one op: apply the batch, amend the placement through the cache,
// and resume connected components and PageRank on the evolved version.
func (r *evolveRig) step(v version, d *graph.Delta, tr *tracer, op int) (batchResult, error) {
	var b batchResult
	sp := tr.begin("graph.delta_apply", op, op)
	evolved, err := d.Apply(v.g)
	tr.end(sp)
	if err != nil {
		return b, err
	}
	if tr != nil {
		sp = tr.begin("workload.fingerprint", op, op)
		_, err = workload.EvolveFingerprint(v.g, d, evolved)
		tr.end(sp)
		if err != nil {
			return b, err
		}
	}
	sp = tr.begin("workload.place_evolved", op, op)
	pl, _, err := v.base.cache.PlaceEvolved(r.part, v.g, d, evolved, r.shares, v.base.ingressSeed)
	tr.end(sp)
	if err != nil {
		return b, err
	}
	t0 := time.Now()
	sp = tr.begin("apps.connected_components_resume.run", op, op)
	cc, err := apps.NewConnectedComponents().Resume(v.labels, d, evolved).Run(pl, r.cl)
	tr.end(sp)
	if err != nil {
		return b, err
	}
	sp = tr.begin("apps.pagerank_resume.run", op, op)
	pr, err := pageRank().Resume(v.ranks).Run(pl, r.cl)
	tr.end(sp)
	if err != nil {
		return b, err
	}
	b.runWall = time.Since(t0).Seconds()
	b.next = version{chain: v.chain, k: v.k + 1, base: v.base, g: evolved, pl: pl,
		labels: cc.Output.(apps.Components).Labels, ranks: pr.Output.([]float64)}
	b.cc, b.pr = cc, pr
	return b, nil
}

// chainStats summarizes a run of the chain.
type chainStats struct {
	start            time.Time
	samples          []opSample // input generation excluded from lat
	runWall, gathers float64
	last             map[*evolveBase]version // each base's latest version
}

// runChain runs ops until dur elapses. Each op's delta is drawn before its
// clock starts. When dg is non-nil, the charges of the first chain on every
// base fold into dg and out.
func (r *evolveRig) runChain(dur time.Duration, tr *tracer, probe bool, dg *digest, out *outcome) (chainStats, error) {
	start := time.Now()
	st := chainStats{start: start, last: map[*evolveBase]version{}}
	v := r.chainStart(0)
	for op := 0; time.Since(start) < dur; op++ {
		if v.k == chainLen {
			v = r.chainStart(v.chain + 1)
		}
		d, err := r.delta(v)
		if err != nil {
			return st, err
		}
		sp := tr.begin("op", -1, op)
		t0 := time.Now()
		b, err := r.step(v, d, tr, op)
		st.samples = append(st.samples, opSample{end: time.Since(start).Seconds(), lat: time.Since(t0).Seconds()})
		tr.end(sp)
		if err != nil {
			return st, err
		}
		if probe {
			// Time the amend path alone on the same inputs, outside the op.
			sp = tr.begin("partition.amend", -1, -1)
			_, err = partition.AmendApply(r.part, v.pl, d, b.next.g, r.shares, v.base.ingressSeed)
			tr.end(sp)
			if err != nil {
				return st, err
			}
		}
		st.runWall += b.runWall
		st.gathers += b.cc.Gathers + b.pr.Gathers
		if dg != nil && v.chain < len(r.bases) {
			for _, res := range []*engine.Result{b.cc, b.pr} {
				c, err := chargeOf(res, 0)
				if err != nil {
					return st, err
				}
				dg.charge(c)
				out.supersteps += c.Supersteps
				out.gathers += c.Gathers
			}
			out.replication += replication(b.next.pl) / float64(chainLen*len(r.bases))
		}
		v = b.next
		st.last[v.base] = v
	}
	return st, nil
}

// verify is the output gate on each base's final version: the chained
// fingerprint equals a full rescan, resumed CC labels equal a cold run, and
// resumed PageRank lies within 2·tol/(1−damping) of a cold run.
func (r *evolveRig) verify(st chainStats, out *outcome) error {
	if len(st.last) == 0 {
		return fmt.Errorf("evolve-chain ran no batch")
	}
	for _, v := range st.last {
		if err := r.verifyVersion(v, out); err != nil {
			return err
		}
		out.verified += 3
	}
	return nil
}

func (r *evolveRig) verifyVersion(v version, out *outcome) error {
	if got, want := workload.GraphFingerprint(v.g), rescanFingerprint(v.g); got != want {
		out.wrong(fmt.Sprintf("chain %d: chained fingerprint %016x, rescan %016x", v.chain, got, want))
	}
	pl, err := partition.Apply(r.part, v.g, r.shares, v.base.ingressSeed)
	if err != nil {
		return err
	}
	cold, err := apps.NewConnectedComponents().Run(pl, r.cl)
	if err != nil {
		return err
	}
	labels := cold.Output.(apps.Components).Labels
	for i := range labels {
		if labels[i] != v.labels[i] {
			out.wrong(fmt.Sprintf("chain %d: resumed CC label of vertex %d is %d, cold %d", v.chain, i, v.labels[i], labels[i]))
			break
		}
	}
	pr := pageRank()
	coldPR, err := pr.Run(pl, r.cl)
	if err != nil {
		return err
	}
	envelope := 2 * pr.Tolerance / (1 - pr.Damping)
	for i, x := range coldPR.Output.([]float64) {
		if diff := math.Abs(x - v.ranks[i]); !(diff <= envelope) {
			out.wrong(fmt.Sprintf("chain %d: resumed PageRank of vertex %d is %v, cold %v (envelope %v)",
				v.chain, i, v.ranks[i], x, envelope))
			break
		}
	}
	return nil
}

// runEvolve runs the evolve-chain workload.
func runEvolve(o options) (*outcome, error) {
	if o.trace {
		return traceEvolve(o)
	}
	rig, setups, err := repeatSetup(func() (*evolveRig, error) { return setupEvolve(o.seed, nil) },
		func(*evolveRig) {})
	if err != nil {
		return nil, err
	}
	out := &outcome{setups: setups}
	var dg digest
	st, err := rig.runChain(o.dur(), nil, false, &dg, out)
	if err != nil {
		return nil, err
	}
	if out.peakRSS, err = peakRSSMB(); err != nil {
		return nil, err
	}
	out.samples, out.attempted, out.busyRate, out.phaseStart = st.samples, len(st.samples), true, st.start
	out.simDigest = uint64(dg)
	return out, rig.verify(st, out)
}

// traceEvolve is the traced run: one set-up with spans, then half the time
// untraced (the overhead reference and runtime metrics) and half with a span
// on every layer call plus an amend probe after each op.
func traceEvolve(o options) (*outcome, error) {
	tr := newTracer()
	rig, err := setupEvolve(o.seed, tr)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	rows := map[string]float64{}
	half := o.dur() / 2

	rt0 := readRuntime()
	var dg digest
	a, err := rig.runChain(half, nil, false, &dg, out)
	if err != nil {
		return nil, err
	}
	maps.Copy(rows, runtimeRows(rt0, readRuntime(), len(a.samples)))
	rows["trace.untraced_ops_per_s"] = a.rate()
	out.simDigest = uint64(dg)

	heap0 := liveHeap()
	cs0 := rig.cacheStats()
	b, err := rig.runChain(half, tr, true, nil, nil)
	if err != nil {
		return nil, err
	}
	cs1 := rig.cacheStats()
	heap1 := liveHeap()
	rows["trace.traced_ops_per_s"] = b.rate()
	rows["trace.overhead_frac"] = 1 - rows["trace.traced_ops_per_s"]/rows["trace.untraced_ops_per_s"]
	rows["service.heap_kb_per_job"] = (heap1 - heap0) / float64(len(b.samples)) / 1024
	if b.runWall > 0 {
		rows["engine.gathers_per_s"] = b.gathers / b.runWall
	}
	calls := float64(cs1.Hits + cs1.Misses + cs1.Amends - cs0.Hits - cs0.Misses - cs0.Amends)
	if calls > 0 {
		rows["workload.amend_ratio"] = float64(cs1.Amends-cs0.Amends) / calls
		rows["workload.cache_hit_ratio"] = float64(cs1.Hits-cs0.Hits) / calls
	}
	if m := cs1.Misses - cs0.Misses; m > 0 {
		rows["workload.ingress_wall_ms"] = (cs1.IngressWallSeconds - cs0.IngressWallSeconds) * 1e3 / float64(m)
	}
	rows["workload.cache_mb"] = float64(cs1.Bytes) / (1 << 20)

	spans := tr.snapshot()
	stats := byName(spans)
	rows["gen.generate_ms"] = totalMs(stats, "gen.generate")
	rows["core.profile_ms"] = totalMs(stats, "core.profile")
	rows["graph.delta_apply_ms"] = p50ms(stats, "graph.delta_apply")
	rows["workload.fingerprint_ms"] = p50ms(stats, "workload.fingerprint")
	rows["workload.place_evolved_ms"] = p50ms(stats, "workload.place_evolved")
	rows["partition.amend_ms"] = p50ms(stats, "partition.amend")
	for _, name := range appRunRows {
		rows["apps."+name+".run_ms"] = p50ms(stats, "apps."+name+".run")
	}
	maps.Copy(rows, selfPerOp(spans, len(b.samples), []string{"graph", "workload", "apps"}))
	if err := tr.write(filepath.Join(o.build, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))); err != nil {
		return nil, err
	}
	out.layerRows = rows
	out.attempted = len(a.samples) + len(b.samples)
	return out, rig.verify(b, out)
}

// cacheStats sums the bases' cache counters.
func (r *evolveRig) cacheStats() workload.CacheStats {
	var t workload.CacheStats
	for _, b := range r.bases {
		s := b.cache.Stats()
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.Amends += s.Amends
		t.Bytes += s.Bytes
		t.IngressWallSeconds += s.IngressWallSeconds
	}
	return t
}

// rate is ops per second of op time.
func (st chainStats) rate() float64 {
	lats := make([]float64, len(st.samples))
	for i, s := range st.samples {
		lats[i] = s.lat
	}
	return float64(len(lats)) / sum(lats)
}
