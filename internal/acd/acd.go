// Package acd computes the ε-almost-clique decomposition of Definition 4.2
// on cluster graphs, following Section 5.4: fingerprint-approximated degrees
// and joint-neighborhood sizes solve the ξ-buddy predicate (Lemma 5.8),
// buddy-edge connected components form the almost-cliques (Proposition 4.3),
// and a further fingerprint wave estimates external degrees to classify
// cabals (Section 4.1).
//
// The decomposition has one path: the slice substrate of graph.ShardedGraph
// and shard.Engine. A partitioned run (ComputeShardedWith) folds each
// slice's arenas over its local CSR, and an unsharded run (ComputeWith) is
// its k = 1 case on a one-slice view that shares the graph's CSR. Sample and
// sketch rows are generated from per-vertex parwork.RowSeed streams keyed by
// global ids, and the waves fold across the worker pool (the max kernel's
// merge is commutative and idempotent), so every shard count and every
// parallelism level produces byte-identical output. The buddy predicate is
// memoized per slice into a packed bitmap keyed by local directed slots:
// each owned↔owned edge is judged once, forward, and mirrored onto its
// reverse slot inside the slice, and each owned→halo edge is judged by its
// owning shard. The dense classification and the component labeling read
// the bitmap for free. A Workspace owns the reusable buffers so repeated
// decompositions allocate O(1) objects regardless of n.
//
// An exact (centralized) reference decomposition is provided for testing and
// for experiments that need ground truth.
package acd

import (
	"fmt"
	"math"
	"math/rand/v2"

	"clustercolor/internal/cluster"
	"clustercolor/internal/fingerprint"
	"clustercolor/internal/graph"
	"clustercolor/internal/parwork"
	"clustercolor/internal/shard"
	"clustercolor/internal/sketch"
)

// Decomposition is an ε-almost-clique decomposition: a partition of the
// vertices into sparse vertices and almost-cliques.
type Decomposition struct {
	// Eps is the ε parameter of Definition 4.2.
	Eps float64
	// CliqueOf maps each vertex to its almost-clique index, -1 if sparse.
	CliqueOf []int
	// Cliques lists the member vertices of each almost-clique.
	Cliques [][]int
}

// IsSparse reports whether v is in V_sparse.
func (d *Decomposition) IsSparse(v int) bool { return d.CliqueOf[v] < 0 }

// Sparsity returns ζ_v of Definition 4.1 computed exactly:
// ζ_v = (1/Δ)·( C(Δ,2) − ½·Σ_{u∈N(v)} |N(u) ∩ N(v)| ).
func Sparsity(g *graph.Graph, v int) float64 {
	delta := float64(g.MaxDegree())
	if delta == 0 {
		return 0
	}
	var shared float64
	for _, u := range g.Neighbors(v) {
		shared += float64(g.CommonNeighbors(v, int(u)))
	}
	return (delta*(delta-1)/2 - shared/2) / delta
}

// Workspace owns the reusable scratch of the decomposition waves: the
// one-slice view of the last graph decomposed through ComputeWith or
// BuildProfileWith and its shard engine, whose arenas back Compute's two
// waves and BuildProfile's external-degree wave (each wave refills them from
// an independent seed, so the lemmas' independence requirements hold), the
// per-vertex estimate buffers, the packed buddy-edge bitmap and its mirror
// snapshot, and the component-labeling buffers. One Workspace serves one
// decomposition at a time; reusing it across calls (core does, per Color
// run) keeps allocation counts independent of n.
type Workspace struct {
	one      *shard.Engine[int8]
	deg      []float64
	count    []float64
	dense    []bool
	buddy    []uint64
	buddySrc []uint64
	label    []int32
	next     []int32
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// oneSlice returns the workspace's one-slice engine over g, building the
// view on first use or when g changes. The view shares g's CSR, so building
// it copies nothing. The engine runs the max kernel — the kernel the paper's
// lemmas are stated for. Its exchange stats are never read (one slice has
// no boundary) and are cleared so they cannot grow across reuses.
func (ws *Workspace) oneSlice(g *graph.Graph) (*shard.Engine[int8], error) {
	if ws.one == nil || ws.one.SG.Slices[0].CSR != g {
		sg, err := graph.NewShardedGraph(g, 1)
		if err != nil {
			return nil, err
		}
		ws.one = shard.NewEngine(sg, sketch.MaxKernel{})
	}
	ws.one.ResetStats()
	return ws.one, nil
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// Exact computes the decomposition centrally: buddy edges are pairs with
// |N(u) ∩ N(v)| ≥ (1−2ξ)Δ, dense candidates have ≥ (1−2ξ)Δ incident buddy
// edges, and almost-cliques are the connected components of the buddy graph
// restricted to dense candidates ([ACK19, Lemma 4.8] shape). ξ is derived
// from eps. The buddy bits are filled on the one-slice view of g, where a
// local slot is a global slot, and assembled like the distributed run.
func Exact(g *graph.Graph, eps float64) (*Decomposition, error) {
	if eps <= 0 || eps >= 1.0/3 {
		return nil, fmt.Errorf("acd: eps %v out of (0, 1/3)", eps)
	}
	xi := eps / 2
	delta := float64(g.MaxDegree())
	ws := NewWorkspace()
	se, err := ws.oneSlice(g)
	if err != nil {
		return nil, err
	}
	isBuddy, err := fillBuddyBits(se, ws, 1, func(int) bool { return true },
		func(_ *sketch.Scratch[int8], _, v, u int) bool {
			return float64(g.CommonNeighbors(v, u)) >= (1-2*xi)*delta
		})
	if err != nil {
		return nil, err
	}
	dense := make([]bool, g.N())
	for v := range dense {
		buddyDeg, base := 0, g.AdjOffset(v)
		for j := range g.Neighbors(v) {
			if isBuddy(0, base+j) {
				buddyDeg++
			}
		}
		dense[v] = float64(buddyDeg) >= (1-2*xi)*delta
	}
	return assemble(se, eps, dense, isBuddy, ws)
}

// Compute runs the distributed decomposition of Proposition 4.3 on a cluster
// graph with a workspace allocated for this call; see ComputeWith.
func Compute(cg *cluster.CG, eps float64, rng *rand.Rand) (*Decomposition, error) {
	return ComputeWith(cg, eps, rng, NewWorkspace())
}

// ComputeWith runs the distributed decomposition of Proposition 4.3 on the
// one-slice view of cg.H held by the workspace: the unsharded run is the
// k = 1 case of ComputeShardedWith, byte for byte.
func ComputeWith(cg *cluster.CG, eps float64, rng *rand.Rand, ws *Workspace) (*Decomposition, error) {
	se, err := ws.oneSlice(cg.H)
	if err != nil {
		return nil, err
	}
	return ComputeShardedWith(cg, se, eps, rng, ws)
}

// ComputeShardedWith runs the distributed decomposition of Proposition 4.3
// on the slices of a partitioned graph: fingerprint waves approximate
// degrees and joint neighborhood sizes (Lemma 5.8), each edge solves the
// buddy predicate locally, a further wave counts incident buddy edges, and
// an O(1)-round labeling finds the components.
//
// Each slice folds its own arenas over its local CSR on its worker-pool
// share, with boundary-exchange phases shipping sample and sketch rows by
// owner shard between the waves. The buddy predicate is memoized per slice
// into a bitmap keyed by local directed slots: every owned↔owned edge is
// judged once, forward (local u > v), and mirrored onto its reverse slot
// inside the slice; every owned→halo edge is judged by its owning shard, so
// a cut edge is judged once on each side — the merge is commutative, so
// both sides reach the same answer. A one-slice view (ComputeWith) has no
// halo, and this is exactly one judgment per edge.
//
// All randomness derives from one draw of rng through parwork.RowSeed
// streams keyed by global ids, and every estimate derives from rows the
// kernel's semilattice merge makes identical at any partition, so the
// decomposition — and the cost-model charges, issued once globally per
// logical wave — is byte-identical at every shard count and parallelism.
// Cross-shard traffic lands in the engine's ExchangeStats. The cluster graph
// may be a materialized view with the engine's dimensions or a
// cluster.NewHeadless view for runs where the global graph never exists.
// ComputeShardedWith is reentrant as long as workspaces and engines are not
// shared.
func ComputeShardedWith(cg *cluster.CG, se *shard.Engine[int8], eps float64, rng *rand.Rand, ws *Workspace) (*Decomposition, error) {
	if eps <= 0 || eps >= 1.0/3 {
		return nil, fmt.Errorf("acd: eps %v out of (0, 1/3)", eps)
	}
	sg := se.SG
	if h := cg.H; h != nil && (h.N() != sg.N() || h.M() != sg.M() || h.MaxDegree() != sg.MaxDegree()) {
		return nil, fmt.Errorf("acd: shard engine partitions a graph of n=%d m=%d Δ=%d, cluster graph has n=%d m=%d Δ=%d",
			sg.N(), sg.M(), sg.MaxDegree(), h.N(), h.M(), h.MaxDegree())
	}
	n := sg.N()
	delta := float64(sg.MaxDegree())
	seed := rng.Uint64()
	if delta == 0 {
		d := &Decomposition{Eps: eps, CliqueOf: make([]int, n)}
		for v := range d.CliqueOf {
			d.CliqueOf[v] = -1
		}
		return d, nil
	}
	xi := eps / 2
	// The buddy predicate conjoins several noisy estimates, so its sketches
	// use double accuracy (ξ/2) relative to the decision margins.
	t, err := fingerprint.TrialsFor(xi/2, n)
	if err != nil {
		return nil, err
	}
	// Wave 1: per-vertex neighborhood sketches (degrees + reusable for the
	// joint-neighborhood estimates on edges), per slice with a sample
	// exchange.
	if err := se.FillSamples(t, parwork.RowSeed(seed, 0), "acd/nbhd"); err != nil {
		return nil, err
	}
	maxBits, err := se.Collect(cg, "acd/nbhd", shard.CollectOptions{})
	if err != nil {
		return nil, err
	}
	ws.deg = growFloats(ws.deg, n)
	if err := estimateRows(se, ws.deg, nil); err != nil {
		return nil, err
	}
	// Edge exchange: endpoints merge sketches and estimate |N(u) ∪ N(v)|.
	// One H-round with a sketch payload (Lemma 5.8); halo rows arrived in
	// the collect's exchange.
	cg.ChargeHRounds("acd/buddy-exchange", 1, maxBits)
	lowCut := (1 - 1.5*xi) * delta
	joinCut := sketch.NewCut((1 + 1.5*xi) * delta)
	isBuddy, err := fillBuddyBits(se, ws, t,
		func(v int) bool { return ws.deg[v] >= lowCut },
		func(sc *sketch.Scratch[int8], s, lv, lu int) bool {
			// F ≤ (1+1.5ξ)Δ means the joint neighborhood is small, i.e. the
			// neighborhoods overlap heavily: a buddy edge. MergedAtMost
			// answers the threshold on the merged row's harmonic statistic,
			// inverting it only near the cut, with no merged row
			// materialized.
			return sc.Est.MergedAtMost(se.OutRowLocal(s, lv), se.OutRowLocal(s, lu), joinCut)
		})
	if err != nil {
		return nil, err
	}
	// Wave 2 (Proposition 4.3): approximate the number of incident buddy
	// edges with the fingerprint counter (Lemma 5.7), reusing the arenas.
	// The dense test sits ~1.5ξ from the count it thresholds and members of
	// one block fail together (their sketches merge nearly the same sample
	// set), so this wave keeps the same doubled accuracy (ξ/2, hence the
	// same t) as the predicate wave rather than Lemma 5.7's bare ξ.
	if err := se.FillSamples(t, parwork.RowSeed(seed, 1), "acd/buddy-count"); err != nil {
		return nil, err
	}
	if _, err := se.Collect(cg, "acd/buddy-count", shard.CollectOptions{
		LocalPred: func(s, lv, lu, lslot int) bool { return isBuddy(s, lslot) },
	}); err != nil {
		return nil, err
	}
	ws.count = growFloats(ws.count, n)
	if err := estimateRows(se, ws.count, nil); err != nil {
		return nil, err
	}
	if cap(ws.dense) < n {
		ws.dense = make([]bool, n)
	}
	ws.dense = ws.dense[:n]
	denseCut := (1 - 1.5*xi) * delta
	for v := 0; v < n; v++ {
		ws.dense[v] = ws.count[v] >= denseCut
	}
	// O(1)-round BFS for leader election in each (diameter-2) component.
	cg.ChargeHRounds("acd/leaders", 3, cg.IDBits())
	return assemble(se, eps, ws.dense, isBuddy, ws)
}

// Validate checks Definition 4.2 structurally: every almost-clique K has
// |K| ≤ (1+eps')Δ and every member has ≥ (1−eps')|K| neighbors inside K. It
// returns the fraction of members violating the degree condition and an
// error if size bounds break. eps' is the tolerance used for checking.
// Membership tests run against one epoch-stamped array shared by all
// cliques (the PR 2 BFS-scratch idiom) instead of a fresh map per clique.
func (d *Decomposition) Validate(g *graph.Graph, epsCheck float64) (violFrac float64, err error) {
	delta := float64(g.MaxDegree())
	total, viol := 0, 0
	inClique := make([]int32, g.N()) // epoch stamp: inClique[v] == i+1 ⇔ v ∈ clique i
	for i, members := range d.Cliques {
		if float64(len(members)) > (1+epsCheck)*delta+1 {
			return 0, fmt.Errorf("acd: clique %d has %d > (1+%v)Δ members", i, len(members), epsCheck)
		}
		epoch := int32(i + 1)
		for _, v := range members {
			inClique[v] = epoch
		}
		for _, v := range members {
			total++
			in := 0
			for _, u := range g.Neighbors(v) {
				if inClique[u] == epoch {
					in++
				}
			}
			if float64(in) < (1-epsCheck)*float64(len(members)) {
				viol++
			}
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(viol) / float64(total), nil
}

// SparseQuality returns the minimum exact sparsity among vertices classified
// sparse (Definition 4.2 requires Ω(ε²Δ)); +Inf when there are none. It
// examines every sparse vertex — O(n·Δ²) worst case; large-instance tests
// should use SparseQualitySampled.
func (d *Decomposition) SparseQuality(g *graph.Graph) float64 {
	return d.SparseQualitySampled(g, 0, 0)
}

// SparseQualitySampled is SparseQuality's documented sampled mode: it
// evaluates the exact sparsity of at most maxSamples sparse vertices, chosen
// uniformly (deterministically from seed), and returns their minimum —
// a one-sided estimate that upper-bounds SparseQuality but costs
// O(maxSamples·Δ²) instead of O(n·Δ²). maxSamples ≤ 0 checks every sparse
// vertex. Evaluation fans across the worker pool; the result is independent
// of the parallelism level (min is order-free).
func (d *Decomposition) SparseQualitySampled(g *graph.Graph, maxSamples int, seed uint64) float64 {
	var sparse []int
	for v := 0; v < g.N(); v++ {
		if d.IsSparse(v) {
			sparse = append(sparse, v)
		}
	}
	if maxSamples > 0 && len(sparse) > maxSamples {
		// Partial Fisher–Yates: the prefix is a uniform sample without
		// replacement.
		rng := parwork.StreamRNG(seed)
		for i := 0; i < maxSamples; i++ {
			j := i + rng.IntN(len(sparse)-i)
			sparse[i], sparse[j] = sparse[j], sparse[i]
		}
		sparse = sparse[:maxSamples]
	}
	min := math.Inf(1)
	chunks := parwork.RangeChunks(len(sparse))
	mins, err := parwork.ForEach(chunks, func(ci int) (float64, error) {
		lo, hi := parwork.ChunkBoundsIn(len(sparse), chunks, ci)
		m := math.Inf(1)
		for _, v := range sparse[lo:hi] {
			if z := Sparsity(g, v); z < m {
				m = z
			}
		}
		return m, nil
	})
	if err != nil {
		// The chunk closure never fails; +Inf here would masquerade as a
		// perfect decomposition, so fail loudly if that ever changes.
		panic("acd: sparse-quality scan failed: " + err.Error())
	}
	for _, m := range mins {
		if m < min {
			min = m
		}
	}
	return min
}
