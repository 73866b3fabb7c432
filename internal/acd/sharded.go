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

// ComputeSharded runs the decomposition on a partitioned substrate with a
// workspace and shard engine allocated for this call; see ComputeShardedWith.
func ComputeSharded(cg *cluster.CG, sg *graph.ShardedGraph, eps float64, rng *rand.Rand) (*Decomposition, error) {
	return ComputeShardedWith(cg, shard.NewEngine(sg, sketch.MaxKernel{}), eps, rng, NewWorkspace())
}

// ComputeShardedWith is ComputeWith on a partitioned substrate: the sketch
// waves run per shard slice — each slice folds its own arenas over its local
// CSR on its worker-pool share, with boundary-exchange phases shipping
// sample and sketch rows by owner shard between the waves — and the buddy
// predicate is evaluated by the owner of each forward edge into the global
// slot bitmap through the slice slot maps. Every byte of randomness derives
// from the same draw, every row from the same global RowSeed stream, and
// every estimate from rows the kernel's semilattice merge makes identical to
// the unsharded fold, so the decomposition — and the cost-model charges,
// issued once globally per logical wave — is byte-identical to ComputeWith
// at every shard count and parallelism. Cross-shard traffic lands in the
// engine's ExchangeStats.
//
// The engine may partition a global-graph-less sharded graph (streaming
// construction, SG.G == nil): the buddy predicate is then memoized per shard
// into bitmaps keyed by local directed slots — each owned directed edge
// evaluates the symmetric predicate itself, replacing the forward+mirror
// passes — and component assembly walks the slices. Every estimate still
// derives from rows the semilattice merge makes byte-identical to the
// materialized fold, so the decomposition and the charges are unchanged; the
// cluster graph may be a materialized view over the same vertex count or a
// cluster.NewHeadless view for runs where the global graph never exists.
func ComputeShardedWith(cg *cluster.CG, se *shard.Engine[int8], eps float64, rng *rand.Rand, ws *Workspace) (*Decomposition, error) {
	if eps <= 0 || eps >= 1.0/3 {
		return nil, fmt.Errorf("acd: eps %v out of (0, 1/3)", eps)
	}
	sg := se.SG
	streaming := sg.G == nil
	if !streaming {
		if sg.G != cg.H {
			return nil, fmt.Errorf("acd: shard engine partitions a different graph")
		}
	} else if cg.H != nil && cg.H.N() != sg.N() {
		return nil, fmt.Errorf("acd: shard engine partitions %d vertices, cluster graph has %d", sg.N(), cg.H.N())
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
	t, err := fingerprint.TrialsFor(xi/2, n)
	if err != nil {
		return nil, err
	}
	// Wave 1: neighborhood sketches, per shard with a sample exchange.
	if err := se.FillSamples(t, parwork.RowSeed(seed, 0), "acd/nbhd"); err != nil {
		return nil, err
	}
	maxBits, err := se.Collect(cg, "acd/nbhd", shard.CollectOptions{})
	if err != nil {
		return nil, err
	}
	ws.deg = growFloats(ws.deg, n)
	if err := estimateSharded(se, ws.deg, nil); err != nil {
		return nil, err
	}
	cg.ChargeHRounds("acd/buddy-exchange", 1, maxBits)
	lowCut := (1 - 1.5*xi) * delta
	// The buddy predicate's threshold, prepared once for MergedAtMost.
	joinCut := sketch.NewCut((1 + 1.5*xi) * delta)
	var wave2 shard.CollectOptions
	var assembleACD func() (*Decomposition, error)
	if !streaming {
		g := sg.G
		// Buddy predicate: each shard evaluates the forward edges of its
		// owned vertices from its local rows (halo rows arrived in the
		// collect's exchange) with the same MergedAtMost threshold test as
		// the unsharded path, writing global slots through the slice slot
		// map; the mirror pass then reflects them onto reverse slots.
		buddy, err := fillEdgeBitsSharded(g, se, ws, t,
			func(v int) bool { return ws.deg[v] >= lowCut },
			func(s int, sl *graph.ShardSlice, sc *sketch.Scratch[int8], lv, lu, lslot int, set func(slot int)) {
				v := sl.Lo + lv
				u := sl.ToGlobal(lu)
				if u <= v || ws.deg[u] < lowCut {
					return
				}
				if sc.Est.MergedAtMost(se.OutRowLocal(s, lv), se.OutRowLocal(s, lu), joinCut) {
					set(int(sl.SlotToGlobal[lslot]))
				}
			})
		if err != nil {
			return nil, err
		}
		if cap(ws.buddySrc) < len(buddy) {
			ws.buddySrc = make([]uint64, len(buddy))
		}
		ws.buddySrc = ws.buddySrc[:len(buddy)]
		copy(ws.buddySrc, buddy)
		if err := mirrorEdgeBits(g, ws.buddySrc, buddy); err != nil {
			return nil, err
		}
		wave2.Pred = func(v, u, slot int) bool { return buddy[slot>>6]&(1<<(slot&63)) != 0 }
		assembleACD = func() (*Decomposition, error) {
			return assemble(g, eps, ws.dense, func(v, u, slot int) bool {
				return buddy[slot>>6]&(1<<(slot&63)) != 0
			}, ws)
		}
	} else {
		// No global slots exist: each shard memoizes the predicate into its
		// own local-slot bitmap, evaluating every owned directed edge — the
		// kernel's merge is commutative, so both directions of an edge
		// compute the identical statistic and answer, and the bits agree
		// with the materialized forward+mirror result without a mirror pass
		// (which would need the global CSR).
		buddy, wordOff, err := fillEdgeBitsShardedLocal(se, ws, t,
			func(v int) bool { return ws.deg[v] >= lowCut },
			func(s int, sl *graph.ShardSlice, sc *sketch.Scratch[int8], lv, lu, lslot int, set func(slot int)) {
				if ws.deg[sl.ToGlobal(lu)] < lowCut {
					return
				}
				if sc.Est.MergedAtMost(se.OutRowLocal(s, lv), se.OutRowLocal(s, lu), joinCut) {
					set(lslot)
				}
			})
		if err != nil {
			return nil, err
		}
		isBuddy := func(s, lslot int) bool {
			return buddy[wordOff[s]+(lslot>>6)]&(1<<(lslot&63)) != 0
		}
		wave2.LocalPred = func(s, lv, lu, lslot int) bool { return isBuddy(s, lslot) }
		assembleACD = func() (*Decomposition, error) {
			return assembleShardedStream(se, eps, ws.dense, isBuddy, ws)
		}
	}
	// Wave 2: buddy-edge counts against the memoized bitmap.
	if err := se.FillSamples(t, parwork.RowSeed(seed, 1), "acd/buddy-count"); err != nil {
		return nil, err
	}
	if _, err := se.Collect(cg, "acd/buddy-count", wave2); err != nil {
		return nil, err
	}
	ws.count = growFloats(ws.count, n)
	if err := estimateSharded(se, ws.count, nil); err != nil {
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
	cg.ChargeHRounds("acd/leaders", 3, cg.IDBits())
	return assembleACD()
}

// estimateSharded fills out[v] with the estimator applied to v's collected
// row, per shard on its pool share. A non-nil keep predicate gates which
// vertices receive an estimate (others keep their zero value) — the profile
// wave estimates clique members only.
func estimateSharded(se *shard.Engine[int8], out []float64, keep func(v int) bool) error {
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

// blockedEdgeSweep drives the cache-blocked edge evaluation of a shard
// chunk: for every admitted owned source lv in [lo, hi) it calls
// eval(lv, lu, lslot) for each neighbor slot, sweeping the sources' neighbor
// runs in ascending blocks of blockRows local target ids — slice neighbor
// lists are sorted ascending by local id (owned then halo sub-rows), so each
// source contributes one contiguous run per round and a block of target rows
// is reused by every source in the chunk while it is cache-resident. admit
// takes the source's global id. eval sees the same (lv, lu, lslot) triples
// as a per-source scan, in a different order.
func blockedEdgeSweep(sl *graph.ShardSlice, lo, hi, blockRows int, admit func(v int) bool, eval func(lv, lu, lslot int)) {
	var srcs, cur []int32
	for lv := lo; lv < hi; lv++ {
		if !admit(sl.Lo + lv) {
			continue
		}
		if len(sl.CSR.Neighbors(lv)) > 0 {
			srcs = append(srcs, int32(lv))
			cur = append(cur, 0)
		}
	}
	for len(srcs) > 0 {
		blockLo := math.MaxInt
		for i, v32 := range srcs {
			if u := int(sl.CSR.Neighbors(int(v32))[cur[i]]); u < blockLo {
				blockLo = u
			}
		}
		blockHi := blockLo + blockRows
		alive := 0
		for i, v32 := range srcs {
			lv := int(v32)
			nb := sl.CSR.Neighbors(lv)
			base := sl.CSR.AdjOffset(lv)
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

// fillEdgeBitsSharded is fillEdgeBits on the partitioned substrate: the
// global packed per-slot bitmap is sized once, and each shard's pool chunks
// its owned range with the same word-ownership spill discipline — a chunk
// owns the word-aligned span starting at its first owned global slot; bits
// below it spill and apply sequentially after all shards finish. Owned
// global slot ranges are contiguous and ascending across (shard, chunk)
// pairs, so word ownership is globally consistent and the bitmap stays
// race-free without atomics. Edge evaluation is cache-blocked per chunk
// (blockedEdgeSweep; rowBytes is the sketch-row width in bytes); eval gates
// and judges each edge and maps its local slot to the global bitmap slot.
func fillEdgeBitsSharded(g *graph.Graph, se *shard.Engine[int8], ws *Workspace, rowBytes int, admit func(v int) bool, eval func(s int, sl *graph.ShardSlice, sc *sketch.Scratch[int8], lv, lu, lslot int, set func(slot int))) ([]uint64, error) {
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
	k := se.SG.NumShards()
	spillsPerShard, err := parwork.ForEach(k, func(s int) ([][]int, error) {
		sl := se.SG.Slices[s]
		own := sl.Own()
		chunks := parwork.RangeChunksAt(own, se.Pool(s).Workers())
		cum := func(v int) int64 { return int64(sl.CSR.AdjOffset(v)) + 16*int64(v) }
		spills := make([][]int, chunks)
		err := se.Pool(s).ForEach(chunks, func(ci int) error {
			lo, hi := parwork.WeightedChunkBounds(own, chunks, ci, cum)
			ownStart := (g.AdjOffset(sl.Lo+lo) + 63) &^ 63
			var spill []int
			var sc sketch.Scratch[int8]
			set := func(slot int) {
				if slot < ownStart {
					spill = append(spill, slot)
					return
				}
				bits[slot>>6] |= 1 << (slot & 63)
			}
			blockedEdgeSweep(sl, lo, hi, blockRows, admit, func(lv, lu, lslot int) {
				eval(s, sl, &sc, lv, lu, lslot, set)
			})
			spills[ci] = spill
			return nil
		})
		return spills, err
	})
	if err != nil {
		return nil, err
	}
	for _, spills := range spillsPerShard {
		for _, sp := range spills {
			for _, slot := range sp {
				bits[slot>>6] |= 1 << (slot & 63)
			}
		}
	}
	return bits, nil
}

// fillEdgeBitsShardedLocal is fillEdgeBits for global-graph-less slices: one
// flat packed bitmap holding a word-aligned region per shard, indexed by the
// shard's local directed slots (wordOff[s] is shard s's first word). Each
// shard's pool chunks its owned range with the same word-ownership spill
// discipline as the global variants; a shard's spills apply right after its
// own chunks drain — regions never share words, so shards stay mutually
// race-free. Edge evaluation is cache-blocked per chunk (blockedEdgeSweep;
// rowBytes is the sketch-row width in bytes).
func fillEdgeBitsShardedLocal(se *shard.Engine[int8], ws *Workspace, rowBytes int, admit func(v int) bool, eval func(s int, sl *graph.ShardSlice, sc *sketch.Scratch[int8], lv, lu, lslot int, set func(slot int))) ([]uint64, []int, error) {
	k := se.SG.NumShards()
	wordOff := make([]int, k+1)
	for s := 0; s < k; s++ {
		sl := se.SG.Slices[s]
		wordOff[s+1] = wordOff[s] + (sl.CSR.AdjOffset(sl.Own())+63)/64
	}
	words := wordOff[k]
	if cap(ws.buddy) < words {
		ws.buddy = make([]uint64, words)
	}
	ws.buddy = ws.buddy[:words]
	for i := range ws.buddy {
		ws.buddy[i] = 0
	}
	bits := ws.buddy
	blockRows := edgeBlockRows(rowBytes)
	if _, err := parwork.ForEach(k, func(s int) (struct{}, error) {
		sl := se.SG.Slices[s]
		own := sl.Own()
		base := wordOff[s]
		chunks := parwork.RangeChunksAt(own, se.Pool(s).Workers())
		cum := func(v int) int64 { return int64(sl.CSR.AdjOffset(v)) + 16*int64(v) }
		spills := make([][]int, chunks)
		if err := se.Pool(s).ForEach(chunks, func(ci int) error {
			lo, hi := parwork.WeightedChunkBounds(own, chunks, ci, cum)
			ownStart := (sl.CSR.AdjOffset(lo) + 63) &^ 63
			var spill []int
			var sc sketch.Scratch[int8]
			set := func(slot int) {
				if slot < ownStart {
					spill = append(spill, slot)
					return
				}
				bits[base+(slot>>6)] |= 1 << (slot & 63)
			}
			blockedEdgeSweep(sl, lo, hi, blockRows, admit, func(lv, lu, lslot int) {
				eval(s, sl, &sc, lv, lu, lslot, set)
			})
			spills[ci] = spill
			return nil
		}); err != nil {
			return struct{}{}, err
		}
		for _, sp := range spills {
			for _, slot := range sp {
				bits[base+(slot>>6)] |= 1 << (slot & 63)
			}
		}
		return struct{}{}, nil
	}); err != nil {
		return nil, nil, err
	}
	return bits, wordOff, nil
}

// assembleShardedStream is assemble for global-graph-less runs: the
// propagation pass walks every shard's owned rows on its pool share instead
// of the global CSR. An owned local row holds the exact global neighbor set
// of its vertex and the buddy bits agree with the materialized bitmap, so
// next is the same pure function of label and the fixpoint — hence the
// decomposition — is byte-identical to the materialized assemble.
func assembleShardedStream(se *shard.Engine[int8], eps float64, dense []bool, isBuddy func(s, lslot int) bool, ws *Workspace) (*Decomposition, error) {
	sg := se.SG
	n := sg.N()
	return assembleFrom(n, eps, dense, ws, func(label, next []int32) (bool, error) {
		perShard, err := parwork.ForEach(sg.NumShards(), func(s int) (bool, error) {
			sl := sg.Slices[s]
			own := sl.Own()
			chunks := parwork.RangeChunksAt(own, se.Pool(s).Workers())
			cum := func(v int) int64 { return int64(sl.CSR.AdjOffset(v)) + 16*int64(v) }
			ch := make([]bool, chunks)
			if err := se.Pool(s).ForEach(chunks, func(ci int) error {
				lo, hi := parwork.WeightedChunkBounds(own, chunks, ci, cum)
				changed := false
				for lv := lo; lv < hi; lv++ {
					v := sl.Lo + lv
					if !dense[v] {
						next[v] = -1
						continue
					}
					m := label[v]
					base := sl.CSR.AdjOffset(lv)
					for j, lu := range sl.CSR.Neighbors(lv) {
						u := sl.ToGlobal(int(lu))
						if dense[u] && label[u] < m && isBuddy(s, base+j) {
							m = label[u]
						}
					}
					next[v] = m
					if m != label[v] {
						changed = true
					}
				}
				ch[ci] = changed
				return nil
			}); err != nil {
				return false, err
			}
			for _, c := range ch {
				if c {
					return true, nil
				}
			}
			return false, nil
		})
		if err != nil {
			return false, err
		}
		for _, c := range perShard {
			if c {
				return true, nil
			}
		}
		return false, nil
	})
}

// BuildProfileSharded computes the Section 4.1 profile on the partitioned
// substrate; see BuildProfileShardedWith.
func BuildProfileSharded(cg *cluster.CG, sg *graph.ShardedGraph, d *Decomposition, delta, ell float64, rng *rand.Rand) (*Profile, error) {
	return BuildProfileShardedWith(cg, shard.NewEngine(sg, sketch.MaxKernel{}), d, delta, ell, rng, NewWorkspace())
}

// BuildProfileShardedWith mirrors BuildProfileWith with the external-degree
// wave running on the shard engine: per-shard fills and folds, a boundary
// exchange for the halo rows, and one global charge — byte-identical output
// and cost at every shard count. The tree and aggregation stages are
// vertex-level primitives on the cluster graph and run unchanged.
func BuildProfileShardedWith(cg *cluster.CG, se *shard.Engine[int8], d *Decomposition, delta, ell float64, rng *rand.Rand, ws *Workspace) (*Profile, error) {
	if ell <= 0 {
		return nil, fmt.Errorf("acd: ell %v must be positive", ell)
	}
	if cg.H == nil {
		// The tree stage needs the materialized cluster graph (BFSForest
		// walks H); headless runs get the decomposition only.
		return nil, fmt.Errorf("acd: profile requires a materialized cluster graph")
	}
	n := cg.H.N()
	p := &Profile{
		Decomp:  d,
		ExtDeg:  make([]float64, n),
		AvgExt:  make([]float64, len(d.Cliques)),
		Size:    make([]int, len(d.Cliques)),
		IsCabal: make([]bool, len(d.Cliques)),
		Ell:     ell,
	}
	if len(d.Cliques) > 0 {
		seed := rng.Uint64()
		t, err := fingerprint.TrialsFor(0.25, n)
		if err != nil {
			return nil, err
		}
		if err := se.FillSamples(t, parwork.RowSeed(seed, 0), "profile/extdeg"); err != nil {
			return nil, err
		}
		if _, err := se.Collect(cg, "profile/extdeg", shard.CollectOptions{
			Pred: func(v, u, slot int) bool {
				return d.CliqueOf[v] >= 0 && d.CliqueOf[u] != d.CliqueOf[v]
			},
		}); err != nil {
			return nil, err
		}
		if err := estimateSharded(se, p.ExtDeg, func(v int) bool { return d.CliqueOf[v] >= 0 }); err != nil {
			return nil, err
		}
		sources := make([]int, len(d.Cliques))
		for i, members := range d.Cliques {
			sources[i] = members[0]
			for _, v := range members {
				if v < sources[i] {
					sources[i] = v
				}
			}
		}
		trees, err := cg.BFSForest("profile/trees", d.Cliques, sources, n)
		if err != nil {
			return nil, err
		}
		p.Trees = trees
		cg.ChargeHRounds("profile/aggregate", 2, 2*cg.IDBits())
		if _, err := parwork.ForEach(len(d.Cliques), func(i int) (struct{}, error) {
			members := d.Cliques[i]
			p.Size[i] = len(members)
			var sum float64
			for _, v := range members {
				sum += p.ExtDeg[v]
			}
			p.AvgExt[i] = sum / float64(len(members))
			p.IsCabal[i] = p.AvgExt[i] < ell
			return struct{}{}, nil
		}); err != nil {
			return nil, err
		}
	}
	_ = delta
	return p, nil
}
