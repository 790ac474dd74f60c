package main

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
	"proxygraph/internal/partition"
	"proxygraph/internal/workload"
)

// charge is a job's simulated outcome: everything the paper's results are
// made of. Two runs of the same job must produce bit-identical charges.
type charge struct {
	Exec, Energy, Ingress float64
	Supersteps            int
	Gathers               float64
	Output                uint64 // digest of the application output
}

func (c charge) String() string {
	return fmt.Sprintf("exec %v energy %v ingress %v steps %d gathers %v out %016x",
		c.Exec, c.Energy, c.Ingress, c.Supersteps, c.Gathers, c.Output)
}

// digest folds values into a running 64-bit hash (SplitMix64 finalizer per
// word), so equal inputs give equal digests across processes.
type digest uint64

func (d *digest) word(x uint64) {
	z := uint64(*d) ^ x
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	*d = digest(z ^ (z >> 31))
}

func (d *digest) float(f float64) { d.word(math.Float64bits(f)) }

func (d *digest) charge(c charge) {
	d.float(c.Exec)
	d.float(c.Energy)
	d.float(c.Ingress)
	d.word(uint64(c.Supersteps))
	d.float(c.Gathers)
	d.word(c.Output)
}

// outputDigest hashes an application's output value.
func outputDigest(out any) (uint64, error) {
	var d digest
	switch o := out.(type) {
	case []float64:
		for _, x := range o {
			d.float(x)
		}
	case []int32:
		for _, x := range o {
			d.word(uint64(uint32(x)))
		}
	case apps.Components:
		d.word(uint64(o.Count))
		d.word(uint64(o.Largest))
		for _, x := range o.Labels {
			d.word(uint64(x))
		}
	case apps.TriangleResult:
		d.word(uint64(o.Total))
		for _, x := range o.PerVertex {
			d.word(uint64(x))
		}
	case apps.ColoringResult:
		d.word(uint64(o.NumColors))
		d.word(uint64(o.Rounds))
		for _, x := range o.Colors {
			d.word(uint64(uint32(x)))
		}
	case apps.SSSPResult:
		d.word(uint64(o.Reached))
		d.word(uint64(o.Rounds))
		for _, x := range o.Dist {
			d.float(x)
		}
	default:
		return 0, fmt.Errorf("no digest for output type %T", out)
	}
	return uint64(d), nil
}

// chargeOf extracts a result's charge.
func chargeOf(res *engine.Result, ingress float64) (charge, error) {
	out, err := outputDigest(res.Output)
	if err != nil {
		return charge{}, err
	}
	return charge{Exec: res.SimSeconds, Energy: res.EnergyJoules, Ingress: ingress,
		Supersteps: res.Supersteps, Gathers: res.Gathers, Output: out}, nil
}

// direct is a job recomputed without the service or the cache: a fresh
// partition.Apply and the application's plain Run.
type direct struct {
	charge
	ingress     float64 // engine.Ingress makespan of the placement
	replication float64 // mean replicas per vertex
	triangles   int64   // TriangleResult.Total, -1 for other apps
}

// runDirect recomputes one job.
func runDirect(part partition.Partitioner, cl *cluster.Cluster, app apps.App, g *graph.Graph, shares []float64, seed uint64) (direct, error) {
	pl, err := partition.Apply(part, g, shares, seed)
	if err != nil {
		return direct{}, err
	}
	ir, err := engine.Ingress(pl, cl)
	if err != nil {
		return direct{}, err
	}
	res, err := app.Run(pl, cl)
	if err != nil {
		return direct{}, err
	}
	c, err := chargeOf(res, 0)
	if err != nil {
		return direct{}, err
	}
	d := direct{charge: c, ingress: ir.Makespan, replication: replication(pl), triangles: -1}
	if tr, ok := res.Output.(apps.TriangleResult); ok {
		d.triangles = tr.Total
	}
	return d, nil
}

// replication is the placement's replication factor: replicas per vertex
// that has any.
func replication(pl *engine.Placement) float64 {
	reps, verts := 0, 0
	for _, m := range pl.ReplicaMask {
		if m != 0 {
			verts++
			for ; m != 0; m &= m - 1 {
				reps++
			}
		}
	}
	if verts == 0 {
		return 0
	}
	return float64(reps) / float64(verts)
}

// parallelDo runs f(0..n-1) on workers goroutines and returns the first
// error.
func parallelDo(n, workers int, f func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// countTriangles is an independent triangle counter: the undirected simple
// graph (self-loops and duplicates dropped), each edge oriented from the
// lower to the higher (degree, id) rank, and the sorted out-lists of every
// oriented edge's endpoints intersected.
func countTriangles(g *graph.Graph) int64 {
	pairs := make([]uint64, 0, len(g.Edges))
	for _, e := range g.Edges {
		u, v := e.Src, e.Dst
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		pairs = append(pairs, uint64(u)<<32|uint64(v))
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	deg := make([]int, g.NumVertices)
	for _, p := range pairs {
		deg[p>>32]++
		deg[uint32(p)]++
	}
	before := func(a, b uint32) bool { return deg[a] < deg[b] || (deg[a] == deg[b] && a < b) }
	off := make([]int, g.NumVertices+1)
	for _, p := range pairs {
		u, v := uint32(p>>32), uint32(p)
		if before(v, u) {
			u = v
		}
		off[u+1]++
	}
	for i := range g.NumVertices {
		off[i+1] += off[i]
	}
	adj := make([]uint32, len(pairs))
	fill := slices.Clone(off[:g.NumVertices])
	for _, p := range pairs {
		u, v := uint32(p>>32), uint32(p)
		if before(v, u) {
			u, v = v, u
		}
		adj[fill[u]] = v
		fill[u]++
	}
	for u := range g.NumVertices {
		slices.Sort(adj[off[u]:off[u+1]])
	}
	var total int64
	for u := range g.NumVertices {
		out := adj[off[u]:off[u+1]]
		for _, v := range out {
			a, b := out, adj[off[v]:off[v+1]]
			for len(a) > 0 && len(b) > 0 {
				switch {
				case a[0] < b[0]:
					a = a[1:]
				case a[0] > b[0]:
					b = b[1:]
				default:
					total++
					a, b = a[1:], b[1:]
				}
			}
		}
	}
	return total
}

// rescanFingerprint is g's content fingerprint computed from scratch: the
// fingerprint memo is keyed by graph pointer, so a copy of g is rescanned.
func rescanFingerprint(g *graph.Graph) uint64 {
	c := *g
	defer workload.ReleaseGraphFingerprint(&c)
	return workload.GraphFingerprint(&c)
}
