package engine

import (
	"fmt"
	"math/bits"

	"proxygraph/internal/cluster"
	"proxygraph/internal/graph"
	"proxygraph/internal/trace"
)

// Direction selects which edge endpoints a program gathers from.
type Direction int

const (
	// GatherIn gathers along in-edges only (PageRank).
	GatherIn Direction = iota
	// GatherBoth gathers along both directions (label propagation).
	GatherBoth
)

// Runtime exposes per-run globals to vertex programs.
type Runtime struct {
	// NumVertices and NumEdges describe the input graph.
	NumVertices, NumEdges int
	// Step is the current superstep, starting at 0.
	Step int
}

// Program is a PowerGraph-style gather–apply–scatter vertex program.
// V is the per-vertex state, A the gather accumulator.
type Program[V, A any] interface {
	// Name labels the application.
	Name() string
	// Coeffs supplies the simulation cost constants.
	Coeffs() CostCoeffs
	// Direction selects the gather neighborhood.
	Direction() Direction
	// ApplyAll reports whether every vertex applies each superstep
	// (fixed-point style, PageRank) rather than only signalled ones.
	ApplyAll() bool
	// MaxSupersteps bounds the iteration count.
	MaxSupersteps() int
	// Init produces vertex v's initial state.
	Init(v graph.VertexID, outDeg, inDeg int32) V
	// Gather returns the contribution of a neighbor with state src along one
	// edge.
	Gather(src V) A
	// Sum combines two gather contributions (must be commutative and
	// associative, PowerGraph's requirement for distributing the gather).
	Sum(a, b A) A
	// Apply combines vertex v's old state with the gathered accumulator and
	// reports whether the state changed (changed vertices signal their
	// neighbors in scatter).
	Apply(v graph.VertexID, old V, acc A, hasAcc bool, rt *Runtime) (V, bool)
}

// Rebalancer lets a dynamic load-balancing policy (e.g. the Mizan-style
// migrator in internal/dynamic) reassign edges between supersteps, the
// related-work alternative to the paper's static CCR-guided ingress. After
// each barrier the engine reports the step's per-machine times; the policy
// may return a replacement owner vector plus the number of edges it moved,
// and the engine charges the migration traffic as a stall before continuing.
type Rebalancer interface {
	// Decide inspects the last superstep and optionally returns a new owner
	// assignment. moved is the number of edges that changed machines.
	Decide(step int, perMachineSeconds []float64, pl *Placement) (owner []int32, moved int64, ok bool)
}

// migratedEdgeBytes is the wire cost of moving one edge (endpoints plus the
// associated vertex state) during dynamic rebalancing.
const migratedEdgeBytes = 48

// RunSync executes prog over the placement on cl and returns the execution
// report plus the final vertex states. The computation is exact; only the
// charged time depends on the placement.
//
// This is the engine's fast path. Each superstep sweeps the machine-local
// CSR-style edge blocks compiled at NewPlacement time (records grouped by
// gather destination, so the sweep is sequential with no indirection through
// g.Edges and the per-destination skew/partial bookkeeping falls out of the
// group boundaries), and frontier-driven programs switch to a sparse
// worklist sweep whenever the active set drops below the hybrid frontier's
// density threshold, skipping inactive edges entirely. Simulated times,
// energy and communication are bit-identical to RunSyncReference; vertex
// values are bit-identical too on dense supersteps, and agree up to
// floating-point re-association on sparse ones (exactly for min/max/integer
// Sums).
func RunSync[V, A any](prog Program[V, A], pl *Placement, cl *cluster.Cluster) (*Result, []V, error) {
	return RunSyncOpts[V, A](prog, pl, cl, Options{})
}

// RunSyncOpts is RunSync with the full option set: an optional dynamic
// rebalancing policy invoked after every superstep, and an optional fault
// configuration enabling deterministic fault injection, superstep
// checkpointing and crash recovery (see FaultConfig).
func RunSyncOpts[V, A any](prog Program[V, A], pl *Placement, cl *cluster.Cluster, opts Options) (*Result, []V, error) {
	rb := opts.Rebalancer
	if cl.Size() != pl.M {
		return nil, nil, fmt.Errorf("engine: placement has %d machines, cluster %d", pl.M, cl.Size())
	}
	g := pl.G
	n := g.NumVertices
	rt := &Runtime{NumVertices: n, NumEdges: len(g.Edges)}

	outDeg := g.OutDegrees()
	inDeg := g.InDegrees()
	vals := make([]V, n)
	for v := range vals {
		vals[v] = prog.Init(graph.VertexID(v), outDeg[v], inDeg[v])
	}

	acc := make([]A, n)
	has := make([]bool, n)

	applyAll := prog.ApplyAll()
	both := prog.Direction() == GatherBoth
	blocks := pl.blocks(both)
	account := NewAccountant(cl, prog.Coeffs())
	account.SetCollector(opts.Trace)

	// The frontier starts full — every vertex gathers in superstep 0, exactly
	// as the reference engine's all-true active bitmap prescribes — unless a
	// warm-start seed narrows it to the vertices a delta batch touched.
	front := newFrontier(n)
	if opts.InitialActive != nil && !applyAll {
		if err := validateInitialActive(opts.InitialActive, n); err != nil {
			return nil, nil, err
		}
		front.seed(opts.InitialActive)
	} else {
		front.fill()
	}
	next := newFrontier(n)

	ft, err := newFTRun[V](opts.Fault, cl)
	if err != nil {
		return nil, nil, err
	}
	ft.baseline(vals, front.bits, front.count, account)

	// Per-superstep scratch, allocated once and reused. touched/contribs
	// back the sparse sweep's per-(machine, destination) partial accounting;
	// dirty lists the destinations gathered into during a sparse step so the
	// accumulator reset costs O(gathered), not O(|V|).
	counters := make([]StepCounters, pl.M)
	var (
		touched  []int64
		contribs []int32
		dirty    []graph.VertexID
	)
	if !applyAll {
		touched = make([]int64, n)
		contribs = make([]int32, n)
	}

	maxSteps := prog.MaxSupersteps()
	for step := 0; step < maxSteps; step++ {
		rt.Step = step
		account.StepBegin(step, front.count, "sync")
		ft.beforeStep(step, account)
		clear(counters)
		for p := range counters {
			// Per-vertex scheduling bookkeeping is charged every superstep
			// regardless of activity (see CostCoeffs.OpsPerVertex).
			counters[p].Vertices = float64(len(pl.MasterVerts[p]))
		}

		// Direction choice, made per superstep: a sparse frontier drives a
		// worklist sweep over the source-grouped blocks; otherwise every
		// machine scans its destination-grouped block sequentially.
		sparse := !applyAll && front.sparse()
		if sparse {
			srcs := front.sorted()
			for p := 0; p < pl.M; p++ {
				sc := &counters[p]
				blk := &blocks[p].bySrc
				// The stamp is unique per (step, machine) pair: p < pl.M
				// makes step*M+p injective over pairs, and the +1 keeps every
				// stamp above touched's zero initialisation.
				stamp := int64(step)*int64(pl.M) + int64(p) + 1
				for _, s := range srcs {
					gi := blk.Find(s)
					if gi < 0 {
						continue
					}
					for _, d := range blk.Group(gi) {
						a := prog.Gather(vals[s])
						if has[d] {
							acc[d] = prog.Sum(acc[d], a)
						} else {
							acc[d] = a
							has[d] = true
							dirty = append(dirty, d)
						}
						sc.Gathers++
						if touched[d] != stamp {
							touched[d] = stamp
							contribs[d] = 0
							if pl.Master[d] != int32(p) {
								sc.PartialsOut++
							}
						}
						contribs[d]++
						if u := float64(contribs[d]); u > sc.MaxUnit {
							sc.MaxUnit = u
						}
					}
				}
			}
		} else {
			act := front.bits
			if applyAll {
				act = nil // every vertex is a gather source; skip the test
			}
			for p := 0; p < pl.M; p++ {
				sc := &counters[p]
				blk := &blocks[p]
				for gi, d := range blk.byDst.Keys {
					var c int32
					for _, s := range blk.byDst.Group(gi) {
						if act != nil && !act[s] {
							continue
						}
						gatherInto(prog, vals, acc, has, s, d)
						c++
					}
					// One destination group = one (machine, vertex) partial:
					// its size is the contribution count the reference engine
					// reconstructs with touched/contribs stamps.
					if c > 0 {
						sc.Gathers += float64(c)
						if blk.remote[gi] {
							sc.PartialsOut++
						}
						if u := float64(c); u > sc.MaxUnit {
							sc.MaxUnit = u
						}
					}
				}
			}
		}

		// Apply phase: masters apply and broadcast changed values to mirrors.
		anyChanged := false
		if sparse {
			// Only gathered destinations can apply (applyAll programs never
			// run sparse), so the sweep visits the dirty set instead of every
			// machine's full master list.
			for _, d := range dirty {
				p := pl.Master[d]
				sc := &counters[p]
				newVal, changed := prog.Apply(d, vals[d], acc[d], true, rt)
				sc.Applies++
				vals[d] = newVal
				if changed {
					anyChanged = true
					mirrors := bits.OnesCount64(pl.ReplicaMask[d])
					if pl.ReplicaMask[d]&(1<<uint(p)) != 0 {
						mirrors--
					}
					sc.UpdatesOut += float64(mirrors)
					next.add(d)
				}
			}
		} else {
			for p := 0; p < pl.M; p++ {
				sc := &counters[p]
				for _, v := range pl.MasterVerts[p] {
					if !applyAll && !has[v] {
						continue
					}
					newVal, changed := prog.Apply(v, vals[v], acc[v], has[v], rt)
					sc.Applies++
					vals[v] = newVal
					if changed {
						anyChanged = true
						mirrors := bits.OnesCount64(pl.ReplicaMask[v])
						if pl.ReplicaMask[v]&(1<<uint(p)) != 0 {
							mirrors--
						}
						sc.UpdatesOut += float64(mirrors)
						if !applyAll {
							next.add(v)
						}
					}
				}
			}
		}

		account.Superstep(counters)

		// Dynamic rebalancing hook: migrate edges between barriers, paying
		// for the moved state on the wire. The new placement arrives with
		// freshly compiled edge blocks.
		if rb != nil {
			last := account.LastStep()
			if owner, moved, ok := rb.Decide(step, last.PerMachine, pl); ok {
				newPl, err := NewPlacement(g, owner, pl.M)
				if err != nil {
					return nil, nil, fmt.Errorf("engine: rebalance at step %d: %w", step, err)
				}
				pl = newPl
				blocks = pl.blocks(both)
				account.emit(trace.Event{Kind: trace.KindRebalance, Step: step, Machine: -1, Moved: moved})
				account.Stall(cl.Net.TransferTime(float64(moved)*migratedEdgeBytes), "migrate")
			}
		}

		// Reset accumulators for the next superstep: O(gathered) after a
		// sparse step, a wholesale clear after a dense one.
		if sparse {
			var zero A
			for _, d := range dirty {
				acc[d] = zero
				has[d] = false
			}
			dirty = dirty[:0]
		} else {
			clear(has)
			clear(acc)
		}

		terminated := !anyChanged
		if !applyAll && !terminated {
			front, next = next, front
			next.reset()
			// The frontier count is maintained live by the apply phase, so
			// termination needs no O(|V|) emptiness scan.
			if front.count == 0 {
				terminated = true
			}
		}

		// Fault barrier: write a due checkpoint, then fire a scheduled crash.
		// On a crash the run rolls back to the returned checkpoint and resumes
		// on the repartitioned survivor placement; replayed supersteps are
		// charged again — lost work is the recovery overhead being measured.
		restore, newPl, err := ft.barrier(step, terminated, account, vals, front.bits, front.count, pl)
		if err != nil {
			return nil, nil, err
		}
		if newPl != nil {
			pl = newPl
			blocks = pl.blocks(both)
		}
		if restore != nil {
			copy(vals, restore.Vals)
			front.restore(restore.Active, restore.ActiveCount)
			next.reset()
			if touched != nil {
				// Stamps are always positive, so zeroing cannot collide with
				// the stamps replayed steps will generate.
				clear(touched)
			}
			step = restore.Step - 1 // loop increment lands on restore.Step
			continue
		}
		if terminated {
			break
		}
	}

	res := account.Finish(prog.Name(), g.Name, nil)
	ft.finish(res)
	return res, vals, nil
}

// gatherInto accumulates the contribution of src's state into dst.
func gatherInto[V, A any](prog Program[V, A], vals []V, acc []A, has []bool, src, dst graph.VertexID) {
	a := prog.Gather(vals[src])
	if has[dst] {
		acc[dst] = prog.Sum(acc[dst], a)
	} else {
		acc[dst] = a
		has[dst] = true
	}
}
