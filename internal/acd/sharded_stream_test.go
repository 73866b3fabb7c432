package acd

import (
	"runtime"
	"strings"
	"testing"

	"clustercolor/internal/cluster"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
	"clustercolor/internal/parwork"
	"clustercolor/internal/shard"
	"clustercolor/internal/sketch"
)

// runStreamDecomp is runDecomp with the sharded graph built from an edge
// stream — no global CSR on the engine's side — under the same cluster
// graph, seeds, and parallelism, so its output is directly comparable to
// both the unsharded and the materialized-sharded runs.
func runStreamDecomp(t *testing.T, h *graph.Graph, shards, par int) decompRun {
	t.Helper()
	prev := parwork.SetParallelism(par)
	defer parwork.SetParallelism(prev)
	cg := asCG(t, h, 17)
	cost, err := network.NewCostModel(64)
	if err != nil {
		t.Fatal(err)
	}
	run := cg.WithCost(cost)
	rng := parwork.StreamRNG(41)
	ell := 8.0
	sg, err := graph.NewShardedGraphFromEdges(h.N(), shards, graph.StreamOf(h))
	if err != nil {
		t.Fatal(err)
	}
	se := shard.NewEngine(sg, sketch.MaxKernel{})
	ws := NewWorkspace()
	var out decompRun
	d, err := ComputeShardedWith(run, se, 0.2, rng, ws)
	if err != nil {
		t.Fatal(err)
	}
	// The profile's predicate is slot-free, so it runs on streamed slices
	// too (the cluster graph here is materialized; only the engine's graph
	// is streamed).
	p, err := BuildProfileShardedWith(run, se, d, float64(h.MaxDegree()), ell, rng, ws)
	if err != nil {
		t.Fatal(err)
	}
	out.d, out.p = d, p
	out.xchange = se.Stats
	out.rounds = run.Cost().Rounds()
	out.bits = run.Cost().TotalBits()
	return out
}

// TestComputeStreamedByteIdentity extends the tentpole invariant to
// streaming construction: a decomposition over slices built from an edge
// stream — never materializing the global CSR on the engine side — must
// reproduce the unsharded decomposition and profile bit for bit, same
// charged budget included, at shard counts 1/2/4 and parallelism 1/4/NumCPU.
func TestComputeStreamedByteIdentity(t *testing.T) {
	planted, _ := plantedInstance(t, 3)
	ring, err := graph.RingOfCliques(7, 11)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"planted":     planted,
		"ringcliques": ring,
		"gnp":         graph.MustGNP(240, 0.12, graph.NewRand(19)),
	}
	pars := []int{1, 4, runtime.NumCPU()}
	for gname, h := range graphs {
		want := runDecomp(t, h, 0, 1)
		for _, shards := range []int{1, 2, 4} {
			for _, par := range pars {
				got := runStreamDecomp(t, h, shards, par)
				assertSameDecomp(t, gname+"/streamed", want, got)
			}
		}
	}
}

// TestComputeStreamedHeadless checks the shape with no global graph at all: a
// headless cluster view (machine count and dilation only) over streamed
// slices must charge the identical budget and produce the identical
// decomposition as the same run under the materialized cluster graph — and
// the profile stage, which needs the materialized graph, must refuse.
func TestComputeStreamedHeadless(t *testing.T) {
	h, err := graph.RingOfCliques(6, 9)
	if err != nil {
		t.Fatal(err)
	}
	base := asCG(t, h, 17)
	newCost := func() *network.CostModel {
		cost, err := network.NewCostModel(64)
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}
	run := func(cg *cluster.CG) (decompRun, *shard.Engine[int8]) {
		sg, err := graph.NewShardedGraphFromEdges(h.N(), 3, graph.StreamOf(h))
		if err != nil {
			t.Fatal(err)
		}
		se := shard.NewEngine(sg, sketch.MaxKernel{})
		d, err := ComputeShardedWith(cg, se, 0.2, parwork.StreamRNG(41), NewWorkspace())
		if err != nil {
			t.Fatal(err)
		}
		return decompRun{d: d, rounds: cg.Cost().Rounds(), bits: cg.Cost().TotalBits()}, se
	}
	want, _ := run(base.WithCost(newCost()))
	headless, err := cluster.NewHeadless(base.G.N(), base.Dilation, newCost())
	if err != nil {
		t.Fatal(err)
	}
	got, se := run(headless)
	if got.rounds != want.rounds || got.bits != want.bits {
		t.Fatalf("headless charged %d/%d, want %d/%d", got.rounds, got.bits, want.rounds, want.bits)
	}
	for v := range want.d.CliqueOf {
		if got.d.CliqueOf[v] != want.d.CliqueOf[v] {
			t.Fatalf("headless CliqueOf[%d] = %d, want %d", v, got.d.CliqueOf[v], want.d.CliqueOf[v])
		}
	}
	if _, err := BuildProfileShardedWith(headless, se, got.d, float64(h.MaxDegree()), 8, parwork.StreamRNG(41), NewWorkspace()); err == nil || !strings.Contains(err.Error(), "materialized") {
		t.Fatalf("headless profile: got %v, want materialized-cluster-graph error", err)
	}
}

// TestComputeStreamedRejectsMismatch pins the validation: an engine whose
// view disagrees with the cluster graph must error rather than silently mix
// graphs — a streamed view with a different vertex count, and a partitioned
// view of a different edge set on the same vertices.
func TestComputeStreamedRejectsMismatch(t *testing.T) {
	h, err := graph.RingOfCliques(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	cg := asCG(t, h, 17)
	sg, err := graph.NewShardedGraphFromEdges(h.N()+1, 2, func(emit func(u, v int) error) error {
		return emit(0, h.N()) // one edge touching the extra vertex
	})
	if err != nil {
		t.Fatal(err)
	}
	se := shard.NewEngine(sg, sketch.MaxKernel{})
	if _, err := ComputeShardedWith(cg, se, 0.2, parwork.StreamRNG(41), NewWorkspace()); err == nil {
		t.Fatal("vertex-count mismatch accepted")
	}
	other, err := graph.NewShardedGraph(graph.Path(h.N()), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeShardedWith(cg, shard.NewEngine(other, sketch.MaxKernel{}), 0.2, parwork.StreamRNG(41), NewWorkspace()); err == nil {
		t.Fatal("edge-set mismatch accepted")
	}
}
