// Package acd computes the ε-almost-clique decomposition of Definition 4.2
// on cluster graphs, following Section 5.4: fingerprint-approximated degrees
// and joint-neighborhood sizes solve the ξ-buddy predicate (Lemma 5.8),
// buddy-edge connected components form the almost-cliques (Proposition 4.3),
// and a further fingerprint wave estimates external degrees to classify
// cabals (Section 4.1).
//
// The decomposition is the pipeline's first stage and runs arena-backed and
// parallel on the generic mergeable-sketch engine of internal/sketch: sample
// and sketch rows live in the workspace's sketch.Engine arenas generated
// from per-vertex parwork.RowSeed streams, the waves fold over the CSR graph
// across the worker pool (the max kernel's merge is commutative and
// idempotent, so every parallelism level produces byte-identical output),
// and the buddy predicate is evaluated exactly once per edge into a packed
// CSR-slot bitmap that the dense classification, the component BFS, and
// downstream consumers all read for free. A Workspace owns the reusable
// engine so repeated decompositions allocate O(1) objects regardless of n.
//
// An exact (centralized) reference decomposition is provided for testing and
// for experiments that need ground truth.
package acd

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"clustercolor/internal/cluster"
	"clustercolor/internal/fingerprint"
	"clustercolor/internal/graph"
	"clustercolor/internal/parwork"
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
// sketch-engine handle whose arenas back Compute's two waves and
// BuildProfile's external-degree wave (each wave refills them from an
// independent seed, so the lemmas' independence requirements hold), the
// per-vertex estimate buffers, the packed buddy-edge bitmap, and the
// component-BFS queue. One Workspace serves one decomposition at a time;
// reusing it across calls (core does, per Color run) keeps allocation counts
// independent of n.
type Workspace struct {
	eng      sketch.Engine[int8]
	deg      []float64
	count    []float64
	dense    []bool
	buddy    []uint64
	buddySrc []uint64
	label    []int32
	next     []int32
}

// NewWorkspace returns an empty workspace; buffers grow on first use. The
// engine runs the max kernel — the kernel the paper's lemmas are stated for.
func NewWorkspace() *Workspace {
	return &Workspace{eng: sketch.Engine[int8]{Kernel: sketch.MaxKernel{}}}
}

// engine returns the workspace's sketch engine, defaulting the kernel for
// zero-value workspaces constructed without NewWorkspace.
func (ws *Workspace) engine() *sketch.Engine[int8] {
	if ws.eng.Kernel == nil {
		ws.eng.Kernel = sketch.MaxKernel{}
	}
	return &ws.eng
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Exact computes the decomposition centrally: buddy edges are pairs with
// |N(u) ∩ N(v)| ≥ (1−2ξ)Δ, dense candidates have ≥ (1−2ξ)Δ incident buddy
// edges, and almost-cliques are the connected components of the buddy graph
// restricted to dense candidates ([ACK19, Lemma 4.8] shape). ξ is derived
// from eps.
func Exact(g *graph.Graph, eps float64) (*Decomposition, error) {
	if eps <= 0 || eps >= 1.0/3 {
		return nil, fmt.Errorf("acd: eps %v out of (0, 1/3)", eps)
	}
	xi := eps / 2
	delta := g.MaxDegree()
	buddyDeg := make([]int, g.N())
	isBuddy := func(u, v int) bool {
		return float64(g.CommonNeighbors(u, v)) >= (1-2*xi)*float64(delta)
	}
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if int(u) > v && isBuddy(v, int(u)) {
				buddyDeg[v]++
				buddyDeg[u]++
			}
		}
	}
	dense := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		dense[v] = float64(buddyDeg[v]) >= (1-2*xi)*float64(delta)
	}
	return assemble(g, eps, dense, func(v, u, slot int) bool { return isBuddy(v, u) }, nil)
}

// assemble groups dense vertices into almost-cliques via connected
// components of the buddy graph restricted to dense vertices. isBuddy
// receives the CSR slot of the directed edge (v, u) so memoized callers
// answer in O(1).
//
// Components are labeled by deterministic parallel min-label propagation
// with pointer jumping: every pass recomputes labels from an immutable
// snapshot across the worker pool, so the fixpoint — each dense vertex
// labeled by its component's minimum member — is byte-identical at any
// parallelism, and the O(m) edge scans that used to run as one serial BFS
// (the last serial scan in the decomposition) now fan out through parwork.
// Pointer jumping bounds the pass count by O(log n) even on long buddy
// paths, though the diameter-2 components of Proposition 4.3 converge in a
// couple of passes. Cliques are indexed by ascending minimum member (the
// same order the serial BFS produced) with members ascending.
func assemble(g *graph.Graph, eps float64, dense []bool, isBuddy func(v, u, slot int) bool, ws *Workspace) (*Decomposition, error) {
	n := g.N()
	return assembleFrom(n, eps, dense, ws, func(label, next []int32) (bool, error) {
		// Propagation cost is one edge scan per dense vertex: weight chunk
		// bounds by the offsets array so heavy rows spread across chunks.
		chunks := parwork.RangeChunks(n)
		cum := func(v int) int64 { return int64(g.AdjOffset(v)) + 16*int64(v) }
		changes, err := parwork.ForEach(chunks, func(ci int) (bool, error) {
			lo, hi := parwork.WeightedChunkBounds(n, chunks, ci, cum)
			changed := false
			for v := lo; v < hi; v++ {
				if !dense[v] {
					next[v] = -1
					continue
				}
				m := label[v]
				base := g.AdjOffset(v)
				for j, u32 := range g.Neighbors(v) {
					u := int(u32)
					if dense[u] && label[u] < m && isBuddy(v, u, base+j) {
						m = label[u]
					}
				}
				next[v] = m
				if m != label[v] {
					changed = true
				}
			}
			return changed, nil
		})
		if err != nil {
			return false, err
		}
		for _, c := range changes {
			if c {
				return true, nil
			}
		}
		return false, nil
	})
}

// assembleFrom is the graph-shape-independent core of assemble: propagate
// performs one full min-label pass — next[v] must be written for every v
// (the component minimum over v's dense buddy neighborhood, or -1 for
// non-dense v) from the immutable previous labels — and reports whether any
// label moved. next is a pure function of label, so any propagate walking
// the same edge set (global CSR or shard slices) reaches the same fixpoint
// byte for byte.
func assembleFrom(n int, eps float64, dense []bool, ws *Workspace, propagate func(label, next []int32) (bool, error)) (*Decomposition, error) {
	d := &Decomposition{Eps: eps, CliqueOf: make([]int, n)}
	var label, next []int32
	if ws != nil {
		ws.label = growInt32(ws.label, n)
		ws.next = growInt32(ws.next, n)
		label, next = ws.label, ws.next
	} else {
		label = make([]int32, n)
		next = make([]int32, n)
	}
	if err := parwork.ForRange(n, func(lo, hi int) error {
		for v := lo; v < hi; v++ {
			if dense[v] {
				label[v] = int32(v)
			} else {
				label[v] = -1
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	chunks := parwork.RangeChunks(n)
	for {
		// Propagate: next[v] = min(label[v], labels of dense buddy
		// neighbors). Reads only the previous labels, writes only next[v].
		changed, err := propagate(label, next)
		if err != nil {
			return nil, err
		}
		// Jump: label[v] = next[next[v]]. A label is always a dense vertex
		// of v's own component, so the hop stays within the component and
		// only shortcuts toward its minimum. Reads only next.
		jumps, err := parwork.ForEach(chunks, func(ci int) (bool, error) {
			lo, hi := parwork.ChunkBoundsIn(n, chunks, ci)
			changed := false
			for v := lo; v < hi; v++ {
				l := next[v]
				if l >= 0 {
					if l2 := next[l]; l2 < l {
						l = l2
						changed = true
					}
				}
				label[v] = l
			}
			return changed, nil
		})
		if err != nil {
			return nil, err
		}
		done := !changed
		for i := range jumps {
			if jumps[i] {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	// Gather: component sizes per root (reusing next as scratch), clique
	// indices for roots with ≥ 2 members in ascending root order, then the
	// member lists — ascending within each clique. Lone dense candidates are
	// not almost-cliques and reclassify as sparse.
	for v := 0; v < n; v++ {
		next[v] = 0
	}
	for v := 0; v < n; v++ {
		if dense[v] {
			next[label[v]]++
		}
	}
	idx := 0
	for v := 0; v < n; v++ {
		if dense[v] && int(label[v]) == v && next[v] >= 2 {
			next[v] = int32(idx)
			idx++
		} else {
			next[v] = -1
		}
	}
	if err := parwork.ForRange(n, func(lo, hi int) error {
		for v := lo; v < hi; v++ {
			if dense[v] {
				d.CliqueOf[v] = int(next[label[v]])
			} else {
				d.CliqueOf[v] = -1
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if idx > 0 {
		d.Cliques = make([][]int, idx)
		for v := 0; v < n; v++ {
			if ci := d.CliqueOf[v]; ci >= 0 {
				d.Cliques[ci] = append(d.Cliques[ci], v)
			}
		}
	}
	return d, nil
}

func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// Compute runs the distributed decomposition of Proposition 4.3 on a cluster
// graph with a workspace allocated for this call; see ComputeWith.
func Compute(cg *cluster.CG, eps float64, rng *rand.Rand) (*Decomposition, error) {
	return ComputeWith(cg, eps, rng, NewWorkspace())
}

// ComputeWith runs the distributed decomposition of Proposition 4.3:
// fingerprint waves approximate degrees and joint neighborhood sizes
// (Lemma 5.8), each edge solves the buddy predicate locally (memoized into
// the workspace's packed edge bitmap, exactly one evaluation per edge), a
// further wave counts incident buddy edges, and an O(1)-round BFS labels the
// components. All randomness derives from one draw of rng through
// parwork.RowSeed streams, and every wave runs across the worker pool, so
// the decomposition is byte-identical at any parwork parallelism level.
// ComputeWith is reentrant as long as workspaces are not shared.
func ComputeWith(cg *cluster.CG, eps float64, rng *rand.Rand, ws *Workspace) (*Decomposition, error) {
	if eps <= 0 || eps >= 1.0/3 {
		return nil, fmt.Errorf("acd: eps %v out of (0, 1/3)", eps)
	}
	g := cg.H
	n := g.N()
	delta := float64(g.MaxDegree())
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
	// joint-neighborhood estimates on edges).
	eng := ws.engine()
	if err := eng.FillSamples(n, t, parwork.RowSeed(seed, 0)); err != nil {
		return nil, err
	}
	maxBits, err := eng.Collect(cg, "acd/nbhd", sketch.CollectOptions{})
	if err != nil {
		return nil, err
	}
	ws.deg = growFloats(ws.deg, n)
	if err := parwork.ForRange(n, func(lo, hi int) error {
		var est sketch.MaxEstimator[int8]
		for v := lo; v < hi; v++ {
			ws.deg[v] = est.Estimate(eng.Row(v))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// Edge exchange: endpoints merge sketches and estimate |N(u) ∪ N(v)|.
	// One H-round with a sketch payload (Lemma 5.8).
	cg.ChargeHRounds("acd/buddy-exchange", 1, maxBits)
	lowCut := (1 - 1.5*xi) * delta
	joinCut := sketch.NewCut((1 + 1.5*xi) * delta)
	// The buddy predicate runs exactly once per edge, memoized into the
	// packed per-slot bitmap: pass A evaluates forward slots (u > v) with
	// per-worker estimator scratch, pass B mirrors them onto the reverse
	// slots. The shared-scratch closure this replaces made Compute
	// non-reentrant and pinned the whole stage to one goroutine.
	buddy, err := fillEdgeBits(g, ws, t,
		func(v int) bool { return ws.deg[v] >= lowCut },
		func(sc *sketch.Scratch[int8], v, u int) bool {
			// F ≤ (1+1.5ξ)Δ means the joint neighborhood is small, i.e. the
			// neighborhoods overlap heavily: a buddy edge. MergedAtMost
			// answers the threshold on the merged row's harmonic statistic,
			// inverting it only near the cut, with no merged row
			// materialized.
			return sc.Est.MergedAtMost(eng.Row(v), eng.Row(u), joinCut)
		})
	if err != nil {
		return nil, err
	}
	// Mirroring reads forward bits while writing reverse bits; a reader's
	// forward word can coincide with another worker's reverse-write word, so
	// the pass reads from an immutable snapshot of the forward bits.
	if cap(ws.buddySrc) < len(buddy) {
		ws.buddySrc = make([]uint64, len(buddy))
	}
	ws.buddySrc = ws.buddySrc[:len(buddy)]
	copy(ws.buddySrc, buddy)
	if err := mirrorEdgeBits(g, ws.buddySrc, buddy); err != nil {
		return nil, err
	}
	// Wave 2 (Proposition 4.3): approximate the number of incident buddy
	// edges with the fingerprint counter (Lemma 5.7), reusing the arenas.
	// The dense test sits ~1.5ξ from the count it thresholds and members of
	// one block fail together (their sketches merge nearly the same sample
	// set), so this wave keeps the same doubled accuracy (ξ/2, hence the
	// same t) as the predicate wave rather than Lemma 5.7's bare ξ.
	if err := eng.FillSamples(n, t, parwork.RowSeed(seed, 1)); err != nil {
		return nil, err
	}
	if _, err := eng.Collect(cg, "acd/buddy-count", sketch.CollectOptions{
		Pred: func(v, u, slot int) bool { return buddy[slot>>6]&(1<<(slot&63)) != 0 },
	}); err != nil {
		return nil, err
	}
	ws.count = growFloats(ws.count, n)
	if err := parwork.ForRange(n, func(lo, hi int) error {
		var est sketch.MaxEstimator[int8]
		for v := lo; v < hi; v++ {
			ws.count[v] = est.Estimate(eng.Row(v))
		}
		return nil
	}); err != nil {
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
	return assemble(g, eps, ws.dense, func(v, u, slot int) bool {
		return buddy[slot>>6]&(1<<(slot&63)) != 0
	}, ws)
}

// edgeBlockBytes is the sketch-row footprint one predicate block targets:
// small enough that a block of target rows stays cache-resident while every
// admitted edge into it is judged, large enough that per-block bookkeeping
// stays negligible next to the estimates.
const edgeBlockBytes = 512 << 10

// edgeBlockRows converts the block budget into a target-row count for rows of
// rowBytes bytes.
func edgeBlockRows(rowBytes int) int {
	if rowBytes < 1 {
		rowBytes = 1
	}
	rows := edgeBlockBytes / rowBytes
	if rows < 64 {
		rows = 64
	}
	return rows
}

// fillEdgeBits sizes the workspace's packed per-slot bitmap for g, zeroes
// it, and evaluates judge over every directed forward edge (v, u) with u > v
// and both endpoints admitted, setting the edge's CSR slot bit on success.
// Each chunk owns the word-aligned span of its slot range; bits falling in a
// chunk's leading partial word are spilled and applied sequentially, so no
// two workers ever touch the same word — the packed bitmap stays race-free
// without atomics.
//
// Evaluation is cache-blocked: within each degree-weighted chunk, the
// admitted sources sweep their forward neighbor runs in ascending blocks of
// edgeBlockRows target ids (rowBytes is the sketch-row width in bytes), so a
// block of target rows is reused by every source in the chunk while it is
// cache-resident instead of each source streaming the whole id range. The
// blocked order sets the same slots — OR-ing into the bitmap is order-free —
// so the bitmap is byte-identical to a per-source scan.
func fillEdgeBits(g *graph.Graph, ws *Workspace, rowBytes int, admit func(v int) bool, judge func(sc *sketch.Scratch[int8], v, u int) bool) ([]uint64, error) {
	n := g.N()
	words := (2*g.M() + 63) / 64
	if cap(ws.buddy) < words {
		ws.buddy = make([]uint64, words)
	}
	ws.buddy = ws.buddy[:words]
	for i := range ws.buddy {
		ws.buddy[i] = 0
	}
	bits := ws.buddy
	blockRows := edgeBlockRows(rowBytes)
	chunks := parwork.RangeChunks(n)
	cum := func(v int) int64 { return int64(g.AdjOffset(v)) + 16*int64(v) }
	spills, err := parwork.ForEach(chunks, func(ci int) ([]int, error) {
		lo, hi := parwork.WeightedChunkBounds(n, chunks, ci, cum)
		ownStart := (g.AdjOffset(lo) + 63) &^ 63
		var spill []int
		var sc sketch.Scratch[int8]
		set := func(slot int) {
			if slot < ownStart {
				spill = append(spill, slot)
				return
			}
			bits[slot>>6] |= 1 << (slot & 63)
		}
		// Gather the chunk's admitted sources that have forward neighbors;
		// cur[i] indexes the next unjudged forward neighbor of srcs[i].
		var srcs, cur []int32
		for v := lo; v < hi; v++ {
			if !admit(v) {
				continue
			}
			nb := g.Neighbors(v)
			j := sort.Search(len(nb), func(i int) bool { return int(nb[i]) > v })
			if j < len(nb) {
				srcs = append(srcs, int32(v))
				cur = append(cur, int32(j))
			}
		}
		// Blocked sweep: each round starts at the smallest pending target and
		// judges every admitted edge into [blockLo, blockLo+blockRows) —
		// neighbor lists are sorted ascending, so each source contributes one
		// contiguous run per round — then compacts exhausted sources.
		for len(srcs) > 0 {
			blockLo := n
			for i, v32 := range srcs {
				if u := int(g.Neighbors(int(v32))[cur[i]]); u < blockLo {
					blockLo = u
				}
			}
			blockHi := blockLo + blockRows
			alive := 0
			for i, v32 := range srcs {
				v := int(v32)
				nb := g.Neighbors(v)
				base := g.AdjOffset(v)
				j := int(cur[i])
				for j < len(nb) && int(nb[j]) < blockHi {
					u := int(nb[j])
					if admit(u) && judge(&sc, v, u) {
						set(base + j)
					}
					j++
				}
				if j < len(nb) {
					srcs[alive] = v32
					cur[alive] = int32(j)
					alive++
				}
			}
			srcs = srcs[:alive]
			cur = cur[:alive]
		}
		return spill, nil
	})
	if err != nil {
		return nil, err
	}
	for _, sp := range spills {
		for _, slot := range sp {
			bits[slot>>6] |= 1 << (slot & 63)
		}
	}
	return bits, nil
}

// mirrorEdgeBits copies every forward bit (u > v) onto its reverse slot:
// for each directed slot (v, u) with u < v it looks up the bit of (u, v) by
// binary search in u's row. Forward bits are read from src — an immutable
// snapshot taken before the pass, since a forward word being read can be
// the same word another worker is writing reverse bits into — and workers
// write only their own rows' slots of bits, with the same word-ownership
// spill discipline as fillEdgeBits.
func mirrorEdgeBits(g *graph.Graph, src, bits []uint64) error {
	n := g.N()
	chunks := parwork.RangeChunks(n)
	cum := func(v int) int64 { return int64(g.AdjOffset(v)) + 16*int64(v) }
	spills, err := parwork.ForEach(chunks, func(ci int) ([]int, error) {
		lo, hi := parwork.WeightedChunkBounds(n, chunks, ci, cum)
		ownStart := (g.AdjOffset(lo) + 63) &^ 63
		var spill []int
		for v := lo; v < hi; v++ {
			base := g.AdjOffset(v)
			for j, u32 := range g.Neighbors(v) {
				u := int(u32)
				if u >= v {
					break // neighbor lists are sorted ascending
				}
				fwd := g.AdjOffset(u) + g.NeighborIndex(u, v)
				if src[fwd>>6]&(1<<(fwd&63)) == 0 {
					continue
				}
				slot := base + j
				if slot < ownStart {
					spill = append(spill, slot)
					continue
				}
				bits[slot>>6] |= 1 << (slot & 63)
			}
		}
		return spill, nil
	})
	if err != nil {
		return err
	}
	for _, sp := range spills {
		for _, slot := range sp {
			bits[slot>>6] |= 1 << (slot & 63)
		}
	}
	return nil
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
