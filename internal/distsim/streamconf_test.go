package distsim

import "testing"

// TestStreamConformanceMatrix is the streaming construction's acceptance
// gate: for every scenario of the matrix and shard counts 1, 2, and 4,
// building the slices from an edge stream — no global CSR — must be
// byte-identical to partitioning the materialized graph.
// TestShardConformanceMatrix decomposes on both views.
func TestStreamConformanceMatrix(t *testing.T) {
	for _, sc := range Matrix() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			for _, shards := range []int{1, 2, 4} {
				rep, err := StreamConformance(sc, 2, shards)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if rep.PeakBufferedEdges <= 0 {
					t.Fatalf("shards=%d: builder buffered no edges on %s", shards, sc.Name)
				}
			}
		})
	}
}
