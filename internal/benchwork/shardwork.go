package benchwork

import (
	"math/bits"

	"clustercolor/internal/acd"
	"clustercolor/internal/cluster"
	"clustercolor/internal/core"
	"clustercolor/internal/network"
	"clustercolor/internal/parwork"
	"clustercolor/internal/shard"
)

// RunACDShardedOnce is RunACDOnce on the partitioned substrate: the same
// decomposition + profile build, driven through a shard engine's per-slice
// arenas and boundary-exchange phases. With equal seeds the outputs are
// byte-identical to RunACDOnce — the benchmarks compare execution layouts,
// not algorithms — and the cross-shard traffic of the run accumulates in
// se.Stats (callers reset it between runs to read per-run numbers).
func RunACDShardedOnce(cg *cluster.CG, se *shard.Engine[int8], eps float64, seed uint64, ws *acd.Workspace) (*acd.Decomposition, *acd.Profile, error) {
	rng := parwork.StreamRNG(seed)
	d, err := acd.ComputeShardedWith(cg, se, eps, rng, ws)
	if err != nil {
		return nil, nil, err
	}
	n := cg.H.N()
	ell := core.DefaultParams(n).Ell(n)
	prof, err := acd.BuildProfileShardedWith(cg, se, d, float64(cg.H.MaxDegree()), ell, rng, ws)
	if err != nil {
		return nil, nil, err
	}
	return d, prof, nil
}

// NewStreamedACDInstance is NewACDInstance without the materialized graphs:
// a headless cluster view charging as n singleton machines — machine count
// n and dilation 0, exactly what the TopologySingleton expansion produces —
// with the same Θ(log n) bandwidth. Decomposition runs under it charge
// byte-identically to runs under the materialized singleton fixture, so the
// streaming benchmarks can cross-check against NewACDInstance at sizes where
// both paths exist.
func NewStreamedACDInstance(n int) (*cluster.CG, error) {
	m := n
	if m < 2 {
		m = 2
	}
	cost, err := network.NewCostModel(2*bits.Len(uint(m)) + 16)
	if err != nil {
		return nil, err
	}
	return cluster.NewHeadless(n, 0, cost)
}

// RunACDStreamedOnce is the decomposition half of RunACDShardedOnce for
// runs with no global graph: headless cluster views carry no materialized graph
// for the profile stage to walk, so only ComputeShardedWith runs. It works
// under materialized views too, which is how the streaming benchmarks compare
// the two construction paths on equal footing.
func RunACDStreamedOnce(cg *cluster.CG, se *shard.Engine[int8], eps float64, seed uint64, ws *acd.Workspace) (*acd.Decomposition, error) {
	return acd.ComputeShardedWith(cg, se, eps, parwork.StreamRNG(seed), ws)
}
