package distsim

import (
	"fmt"
	"slices"

	"clustercolor/internal/graph"
)

// StreamReport summarizes one scenario's streaming-construction check at one
// shard count. As with ShardReport, a returned report means every compared
// surface byte-matched; divergence surfaces as an error.
type StreamReport struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Shards   int    `json:"shards"`
	Vertices int    `json:"vertices"`
	// PeakBufferedEdges is the streaming builder's high-water mark of
	// buffered packed edges — the transient footprint the streaming path
	// pays instead of a global CSR.
	PeakBufferedEdges int `json:"peak_buffered_edges"`
}

// StreamConformance is the streaming construction's differential check: for
// one scenario it builds the sharded view twice — partitioning the
// materialized graph, and re-building each slice from an edge stream with no
// global CSR — and asserts, at the given shard count, that every slice is
// byte-identical: bounds, local CSR rows, halo and halo owners, boundary
// rows and boundary-edge counts. ShardConformance decomposes on both views
// and ties each to the one-slice run.
func StreamConformance(sc Scenario, seed uint64, shards int) (*StreamReport, error) {
	h, err := sc.Build(seed)
	if err != nil {
		return nil, fmt.Errorf("distsim: %s: build: %w", sc.Name, err)
	}
	rep := &StreamReport{
		Scenario: sc.Name,
		Seed:     seed,
		Shards:   shards,
		Vertices: h.N(),
	}
	mat, err := graph.NewShardedGraph(h, shards)
	if err != nil {
		return nil, fmt.Errorf("distsim: %s: materialized shard: %w", sc.Name, err)
	}
	sb, err := graph.NewShardedBuilder(h.N(), mat.Starts)
	if err != nil {
		return nil, fmt.Errorf("distsim: %s: stream builder: %w", sc.Name, err)
	}
	if err := graph.StreamOf(h)(sb.AddEdge); err != nil {
		return nil, fmt.Errorf("distsim: %s: stream: %w", sc.Name, err)
	}
	rep.PeakBufferedEdges = sb.PeakBufferedEdges()
	str, err := sb.Build()
	if err != nil {
		return nil, fmt.Errorf("distsim: %s: stream build: %w", sc.Name, err)
	}
	if err := conformStreamSlices(mat, str); err != nil {
		return nil, fmt.Errorf("distsim: %s: %w", sc.Name, err)
	}
	return rep, nil
}

// conformStreamSlices asserts the streamed sharded view is byte-identical to
// the materialized one on every surface both construction paths produce.
func conformStreamSlices(mat, str *graph.ShardedGraph) error {
	if !slices.Equal(str.Starts, mat.Starts) {
		return fmt.Errorf("streamed starts %v, want %v", str.Starts, mat.Starts)
	}
	if str.N() != mat.N() || str.M() != mat.M() || str.MaxDegree() != mat.MaxDegree() {
		return fmt.Errorf("streamed dims n=%d m=%d Δ=%d, want n=%d m=%d Δ=%d",
			str.N(), str.M(), str.MaxDegree(), mat.N(), mat.M(), mat.MaxDegree())
	}
	for s := range mat.Slices {
		want, got := mat.Slices[s], str.Slices[s]
		if got.Shard != want.Shard || got.Lo != want.Lo || got.Hi != want.Hi {
			return fmt.Errorf("slice %d bounds [%d,%d), want [%d,%d)", s, got.Lo, got.Hi, want.Lo, want.Hi)
		}
		if got.CSR.N() != want.CSR.N() || got.CSR.M() != want.CSR.M() || got.CSR.MaxDegree() != want.CSR.MaxDegree() {
			return fmt.Errorf("slice %d local CSR dims diverge", s)
		}
		for lv := 0; lv < want.CSR.N(); lv++ {
			if got.CSR.AdjOffset(lv) != want.CSR.AdjOffset(lv) {
				return fmt.Errorf("slice %d local row %d offset diverges", s, lv)
			}
			if !slices.Equal(got.CSR.Neighbors(lv), want.CSR.Neighbors(lv)) {
				return fmt.Errorf("slice %d local row %d diverges", s, lv)
			}
		}
		if !slices.Equal(got.Halo, want.Halo) || !slices.Equal(got.HaloOwner, want.HaloOwner) {
			return fmt.Errorf("slice %d halo diverges", s)
		}
		if !slices.Equal(got.Boundary, want.Boundary) || got.BoundaryEdges != want.BoundaryEdges {
			return fmt.Errorf("slice %d boundary diverges", s)
		}
	}
	return nil
}
