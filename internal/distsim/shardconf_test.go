package distsim

import (
	"runtime"
	"testing"

	"clustercolor/internal/parwork"
)

// TestShardConformanceMatrix is the partitioned substrate's acceptance
// gate: for every scenario of the matrix and shard counts 1, 2, and 4, the
// machine-level wave on the multi-engine, the vertex-level decomposition on
// the shard engine over the partitioned and the streamed view, and the full
// pipeline with Params.Shards must all byte-match their single-address-space
// counterparts with identical charged rounds and link budgets.
func TestShardConformanceMatrix(t *testing.T) {
	for _, sc := range Matrix() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			for _, shards := range []int{1, 2, 4} {
				rep, err := ShardConformance(sc, 2, 0, shards)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if rep.PipelineRounds <= 0 || rep.DecompRounds < 0 {
					t.Fatalf("shards=%d: implausible rounds %+v", shards, rep)
				}
				if shards == 1 && (rep.WaveExchangedRows != 0 || rep.DecompExchangedRows != 0) {
					t.Fatalf("shards=1 exchanged traffic: %+v", rep)
				}
				if shards > 1 && rep.WaveExchangedRows == 0 {
					t.Fatalf("shards=%d: wave crossed no shard boundaries on %s", shards, sc.Name)
				}
			}
		})
	}
}

// TestShardConformanceRace is the race-mode cell the CI runs under -race:
// shards=4 at full parallelism, so every concurrent surface of the
// partitioned path — per-shard pools, boundary exchanges, the multi-engine's
// compute/exchange/deliver phases — runs at once.
func TestShardConformanceRace(t *testing.T) {
	prev := parwork.SetParallelism(runtime.NumCPU())
	defer parwork.SetParallelism(prev)
	for _, name := range []string{"gnp/singleton", "planted/redundant"} {
		if _, err := ShardConformance(scenarioByName(t, name), 7, 0, 4); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
