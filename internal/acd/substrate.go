package acd

import (
	"math"
	"sort"

	"clustercolor/internal/graph"
	"clustercolor/internal/parwork"
	"clustercolor/internal/shard"
	"clustercolor/internal/sketch"
)

// estimateRows fills out[v] with the estimator applied to v's collected
// row, per shard on its pool share. A non-nil keep predicate gates which
// vertices receive an estimate (others keep their zero value) — the profile
// wave estimates clique members only.
func estimateRows(se *shard.Engine[int8], out []float64, keep func(v int) bool) error {
	k := se.SG.NumShards()
	_, err := parwork.ForEach(k, func(s int) (struct{}, error) {
		sl := se.SG.Slices[s]
		return struct{}{}, se.Pool(s).ForRange(sl.Own(), func(lo, hi int) error {
			var est sketch.MaxEstimator[int8]
			for lv := lo; lv < hi; lv++ {
				v := sl.Lo + lv
				if keep != nil && !keep(v) {
					continue
				}
				out[v] = est.Estimate(se.OutRowLocal(s, lv))
			}
			return nil
		})
	})
	return err
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

// forwardEdgeSweep drives the cache-blocked forward-edge evaluation of a
// slice chunk: for every admitted owned source lv in [lo, hi) it calls
// eval(lv, lu, lslot) for each neighbor with local id lu > lv — the owned
// forward neighbors followed by the whole halo sub-row, since halo ids
// follow the owned range — sweeping the sources' runs in ascending blocks
// of blockRows local target ids. Slice rows are sorted ascending by local
// id, so each source contributes one contiguous run per round and a block
// of target rows is reused by every source in the chunk while it is
// cache-resident. admit takes the source's global id. eval sees the same
// (lv, lu, lslot) triples as a per-source scan, in a different order.
func forwardEdgeSweep(sl *graph.ShardSlice, lo, hi, blockRows int, admit func(v int) bool, eval func(lv, lu, lslot int)) {
	g := sl.CSR
	var srcs, cur []int32
	for lv := lo; lv < hi; lv++ {
		if !admit(sl.Lo + lv) {
			continue
		}
		nb := g.Neighbors(lv)
		j := sort.Search(len(nb), func(i int) bool { return int(nb[i]) > lv })
		if j < len(nb) {
			srcs = append(srcs, int32(lv))
			cur = append(cur, int32(j))
		}
	}
	for len(srcs) > 0 {
		blockLo := math.MaxInt
		for i, v32 := range srcs {
			if u := int(g.Neighbors(int(v32))[cur[i]]); u < blockLo {
				blockLo = u
			}
		}
		blockHi := blockLo + blockRows
		alive := 0
		for i, v32 := range srcs {
			lv := int(v32)
			nb := g.Neighbors(lv)
			base := g.AdjOffset(lv)
			j := int(cur[i])
			for j < len(nb) && int(nb[j]) < blockHi {
				eval(lv, int(nb[j]), base+j)
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
}

// fillBuddyBits memoizes the buddy predicate into one flat packed bitmap in
// the workspace holding a word-aligned region per slice, indexed by the
// slice's local directed slots, and returns the lookup isBuddy(s, lslot).
// Per slice, on its pool share:
//
//  1. forward pass: every owned source v with admit(v) judges each
//     neighbor u with local id above its own — owned forward neighbors and
//     every halo neighbor — when admit(u) holds too, setting the slot of
//     (v, u) when judge says so (rowBytes, the sketch-row width in bytes,
//     sizes the cache blocks of forwardEdgeSweep);
//  2. mirror pass: every owned↔owned slot (v, u) with u < v copies the bit
//     of (u, v), found by binary search in u's slice row. It reads an
//     immutable snapshot of the region — a forward word being read can be
//     the word another worker is writing reverse bits into.
//
// judge must be symmetric. Owned→halo edges are judged by each owning
// shard, so both directions of a cut edge agree without crossing slices.
// Both passes write through setOwnedSlots' word-ownership discipline, and
// regions never share words, so the bitmap is race-free without atomics.
func fillBuddyBits(se *shard.Engine[int8], ws *Workspace, rowBytes int, admit func(v int) bool, judge func(sc *sketch.Scratch[int8], s, lv, lu int) bool) (func(s, lslot int) bool, error) {
	k := se.SG.NumShards()
	wordOff := make([]int, k+1)
	for s, sl := range se.SG.Slices {
		wordOff[s+1] = wordOff[s] + (sl.CSR.AdjOffset(sl.Own())+63)/64
	}
	words := wordOff[k]
	if cap(ws.buddy) < words {
		ws.buddy = make([]uint64, words)
	}
	if cap(ws.buddySrc) < words {
		ws.buddySrc = make([]uint64, words)
	}
	ws.buddy = ws.buddy[:words]
	for i := range ws.buddy {
		ws.buddy[i] = 0
	}
	bits, src := ws.buddy, ws.buddySrc[:words]
	blockRows := edgeBlockRows(rowBytes)
	if _, err := parwork.ForEach(k, func(s int) (struct{}, error) {
		sl := se.SG.Slices[s]
		g := sl.CSR
		region := bits[wordOff[s]:wordOff[s+1]]
		if err := setOwnedSlots(se.Pool(s), sl, region, func(lo, hi int, set func(lslot int)) {
			var sc sketch.Scratch[int8]
			forwardEdgeSweep(sl, lo, hi, blockRows, admit, func(lv, lu, lslot int) {
				if admit(sl.ToGlobal(lu)) && judge(&sc, s, lv, lu) {
					set(lslot)
				}
			})
		}); err != nil {
			return struct{}{}, err
		}
		snap := src[wordOff[s]:wordOff[s+1]]
		copy(snap, region)
		return struct{}{}, setOwnedSlots(se.Pool(s), sl, region, func(lo, hi int, set func(lslot int)) {
			for lv := lo; lv < hi; lv++ {
				base := g.AdjOffset(lv)
				for j, lu32 := range g.Neighbors(lv) {
					lu := int(lu32)
					if lu >= lv {
						break // rows are sorted ascending; halo ids follow
					}
					fwd := g.AdjOffset(lu) + g.NeighborIndex(lu, lv)
					if snap[fwd>>6]&(1<<(fwd&63)) != 0 {
						set(base + j)
					}
				}
			}
		})
	}); err != nil {
		return nil, err
	}
	return func(s, lslot int) bool {
		return bits[wordOff[s]+(lslot>>6)]&(1<<(lslot&63)) != 0
	}, nil
}

// setOwnedSlots runs fill over degree-weighted chunks of a slice's owned
// rows on its pool; fill(lo, hi, set) may set bits of owned rows [lo, hi)
// only. Each chunk owns the word-aligned span starting at its first slot;
// bits below it spill and apply sequentially after every chunk drains, so
// no two workers ever touch the same word.
func setOwnedSlots(pool *parwork.ShardPool, sl *graph.ShardSlice, region []uint64, fill func(lo, hi int, set func(lslot int))) error {
	g := sl.CSR
	own := sl.Own()
	chunks := parwork.RangeChunksAt(own, pool.Workers())
	cum := func(v int) int64 { return int64(g.AdjOffset(v)) + 16*int64(v) }
	spills := make([][]int, chunks)
	if err := pool.ForEach(chunks, func(ci int) error {
		lo, hi := parwork.WeightedChunkBounds(own, chunks, ci, cum)
		ownStart := (g.AdjOffset(lo) + 63) &^ 63
		var spill []int
		fill(lo, hi, func(lslot int) {
			if lslot < ownStart {
				spill = append(spill, lslot)
				return
			}
			region[lslot>>6] |= 1 << (lslot & 63)
		})
		spills[ci] = spill
		return nil
	}); err != nil {
		return err
	}
	for _, sp := range spills {
		for _, lslot := range sp {
			region[lslot>>6] |= 1 << (lslot & 63)
		}
	}
	return nil
}

// assemble groups dense vertices into almost-cliques via connected
// components of the buddy graph restricted to dense vertices, walking every
// slice's owned rows on its pool share. An owned slice row holds the exact
// global neighbor set of its vertex, so the components are those of the
// global buddy graph at any partition.
//
// Components are labeled by deterministic parallel min-label propagation
// with pointer jumping: every pass recomputes labels from an immutable
// snapshot, so the fixpoint — each dense vertex labeled by its component's
// minimum member — is byte-identical at any parallelism and shard count.
// Pointer jumping bounds the pass count by O(log n) even on long buddy
// paths, though the diameter-2 components of Proposition 4.3 converge in a
// couple of passes. Cliques are indexed by ascending minimum member with
// members ascending.
func assemble(se *shard.Engine[int8], eps float64, dense []bool, isBuddy func(s, lslot int) bool, ws *Workspace) (*Decomposition, error) {
	n := se.SG.N()
	d := &Decomposition{Eps: eps, CliqueOf: make([]int, n)}
	ws.label = growInt32(ws.label, n)
	ws.next = growInt32(ws.next, n)
	label, next := ws.label, ws.next
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
		changed, err := propagateLabels(se, dense, isBuddy, label, next)
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
		if !changed && !anyTrue(jumps) {
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

// propagateLabels performs one full min-label pass of assemble over every
// slice's owned rows — next[v] is written for every v (the minimum over v's
// dense buddy neighborhood, or -1 for non-dense v) from the immutable
// previous labels — and reports whether any label moved. Propagation cost
// is one edge scan per dense vertex, so chunk bounds are weighted by the
// offsets array and heavy rows spread across chunks.
func propagateLabels(se *shard.Engine[int8], dense []bool, isBuddy func(s, lslot int) bool, label, next []int32) (bool, error) {
	perShard, err := parwork.ForEach(se.SG.NumShards(), func(s int) (bool, error) {
		sl := se.SG.Slices[s]
		g := sl.CSR
		own := sl.Own()
		chunks := parwork.RangeChunksAt(own, se.Pool(s).Workers())
		cum := func(v int) int64 { return int64(g.AdjOffset(v)) + 16*int64(v) }
		ch := make([]bool, chunks)
		err := se.Pool(s).ForEach(chunks, func(ci int) error {
			lo, hi := parwork.WeightedChunkBounds(own, chunks, ci, cum)
			for lv := lo; lv < hi; lv++ {
				v := sl.Lo + lv
				if !dense[v] {
					next[v] = -1
					continue
				}
				m := label[v]
				base := g.AdjOffset(lv)
				for j, lu := range g.Neighbors(lv) {
					u := sl.ToGlobal(int(lu))
					if dense[u] && label[u] < m && isBuddy(s, base+j) {
						m = label[u]
					}
				}
				next[v] = m
				if m != label[v] {
					ch[ci] = true
				}
			}
			return nil
		})
		return anyTrue(ch), err
	})
	return anyTrue(perShard), err
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}
