package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"clustercolor/internal/acd"
	"clustercolor/internal/benchwork"
	"clustercolor/internal/cluster"
	"clustercolor/internal/experiments"
	"clustercolor/internal/graph"
	"clustercolor/internal/shard"
	"clustercolor/internal/sketch"
)

// curvePoint is one cell of a speedup curve: the requested parallelism level,
// what the scheduler could actually deliver, the measured per-run wall cost,
// and the speedup against the curve's serial (first-level) point.
type curvePoint struct {
	Parallelism          int     `json:"parallelism"`
	EffectiveParallelism int     `json:"effective_parallelism"`
	NsPerOp              float64 `json:"ns_per_op"`
	SpeedupVsSerial      float64 `json:"speedup_vs_serial,omitempty"`
}

// speedupCurve is the scaling curve of one pipeline stage on one workload:
// per-level wall cost over the parallelism grid. NonMonotone marks curves
// whose speedup ever decreases as levels grow — flagged rather than hidden,
// so a straggling stage is visible in the artifact instead of averaged away.
type speedupCurve struct {
	Workload    string       `json:"workload"`
	Stage       string       `json:"stage"`
	Points      []curvePoint `json:"points"`
	NonMonotone bool         `json:"non_monotone,omitempty"`
}

// finishCurve computes the speedup column (against the first point with a
// nonzero cost) and the monotonicity flag.
func finishCurve(workload, stage string, pts []curvePoint) speedupCurve {
	var serial float64
	for _, p := range pts {
		if p.NsPerOp > 0 {
			serial = p.NsPerOp
			break
		}
	}
	for i := range pts {
		if serial > 0 && pts[i].NsPerOp > 0 {
			pts[i].SpeedupVsSerial = serial / pts[i].NsPerOp
		}
	}
	c := speedupCurve{Workload: workload, Stage: stage, Points: pts}
	for i := 1; i < len(pts); i++ {
		if pts[i].SpeedupVsSerial > 0 && pts[i-1].SpeedupVsSerial > 0 &&
			pts[i].SpeedupVsSerial < pts[i-1].SpeedupVsSerial {
			c.NonMonotone = true
		}
	}
	return c
}

// curveFromNs builds a finished curve from parallel slices of grid levels and
// measured costs (the shape the wave-sweep emitters already have in hand).
func curveFromNs(workload, stage string, levels []int, ns []float64) speedupCurve {
	pts := make([]curvePoint, len(levels))
	for i, par := range levels {
		pts[i] = curvePoint{Parallelism: par, EffectiveParallelism: effectivePar(par), NsPerOp: ns[i]}
	}
	return finishCurve(workload, stage, pts)
}

// stageOrder is the canonical presentation order of stage curves; stages not
// listed sort alphabetically after it.
var stageOrder = []string{
	"total", "sharded-total", "decompose", "profile",
	"slackgen", "sparse", "matchings", "scts", "palettes", "donate",
	"lowdegree", "fallback", "collect", "exchange",
}

// curveBuilder accumulates per-stage costs over the grid for one workload and
// turns them into finished curves in canonical stage order.
type curveBuilder struct {
	workload string
	levels   []int
	ns       map[string][]float64
}

func newCurveBuilder(workload string, levels []int) *curveBuilder {
	return &curveBuilder{workload: workload, levels: levels, ns: map[string][]float64{}}
}

func (cb *curveBuilder) add(levelIdx int, stage string, nsPerOp float64) {
	s, ok := cb.ns[stage]
	if !ok {
		s = make([]float64, len(cb.levels))
		cb.ns[stage] = s
	}
	s[levelIdx] = nsPerOp
}

func (cb *curveBuilder) curves() []speedupCurve {
	rank := map[string]int{}
	for i, s := range stageOrder {
		rank[s] = i
	}
	stages := make([]string, 0, len(cb.ns))
	for s := range cb.ns {
		stages = append(stages, s)
	}
	sort.Slice(stages, func(i, j int) bool {
		ri, iok := rank[stages[i]]
		rj, jok := rank[stages[j]]
		switch {
		case iok && jok:
			return ri < rj
		case iok != jok:
			return iok
		default:
			return stages[i] < stages[j]
		}
	})
	out := make([]speedupCurve, 0, len(stages))
	for _, stage := range stages {
		pts := make([]curvePoint, len(cb.levels))
		for i, par := range cb.levels {
			pts[i] = curvePoint{Parallelism: par, EffectiveParallelism: effectivePar(par), NsPerOp: cb.ns[stage][i]}
		}
		out = append(out, finishCurve(cb.workload, stage, pts))
	}
	return out
}

// speedupMinWall/speedupMaxIters bound the measurement loop per grid cell:
// repeat the run until minWall has elapsed or maxIters runs are in, then
// average per stage. Package variables so the emitter tests can shrink them.
var (
	speedupMinWall  = 200 * time.Millisecond
	speedupMaxIters = 8
)

// timeStageRuns repeats step and averages the per-stage wall costs it
// returns. At least one run always executes.
func timeStageRuns(minWall time.Duration, maxIters int, step func(iter int) (map[string]int64, error)) (map[string]float64, int, error) {
	totals := map[string]int64{}
	iters := 0
	start := time.Now()
	for iters == 0 || (time.Since(start) < minWall && iters < maxIters) {
		m, err := step(iters)
		if err != nil {
			return nil, 0, err
		}
		for k, v := range m {
			totals[k] += v
		}
		iters++
	}
	out := make(map[string]float64, len(totals))
	for k, v := range totals {
		out[k] = float64(v) / float64(iters)
	}
	return out, iters, nil
}

// colorCurves measures the coloring pipeline's per-stage scaling on one
// workload: Stats.StageNs (decompose, matchings, scts, palettes, donate,
// slackgen, sparse, lowdegree, fallback, exchange — whichever the path ran)
// plus end-to-end wall, at every grid level. The colorings are byte-identical
// across levels (the parwork determinism contract), so the curves measure
// wall-clock only.
func colorCurves(w benchwork.ColorWorkload, h *graph.Graph, seed uint64, levels []int) ([]speedupCurve, error) {
	params := w.Params(h.N())
	cb := newCurveBuilder(w.Name, levels)
	for li, par := range levels {
		prev := experiments.SetParallelism(par)
		stageNs, _, err := timeStageRuns(speedupMinWall, speedupMaxIters, func(iter int) (map[string]int64, error) {
			t0 := time.Now()
			stats, err := benchwork.RunColor(h, params, seed+uint64(iter))
			if err != nil {
				return nil, err
			}
			m := make(map[string]int64, len(stats.StageNs)+1)
			for k, v := range stats.StageNs {
				m[k] = v
			}
			m["total"] = int64(time.Since(t0))
			return m, nil
		})
		experiments.SetParallelism(prev)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		for st, v := range stageNs {
			cb.add(li, st, v)
		}
	}
	return cb.curves(), nil
}

// acdCurves measures the decomposition's scaling on one workload: the sketch
// waves (ComputeWith) and the profile build, separately timed by
// RunACDOnceTimed, at every grid level.
func acdCurves(w benchwork.ACDWorkload, cg *cluster.CG, ws *acd.Workspace, seed uint64, levels []int) ([]speedupCurve, error) {
	cb := newCurveBuilder(w.Name, levels)
	for li, par := range levels {
		prev := experiments.SetParallelism(par)
		stageNs, _, err := timeStageRuns(speedupMinWall, speedupMaxIters, func(iter int) (map[string]int64, error) {
			_, _, computeNs, profileNs, err := benchwork.RunACDOnceTimed(cg, w.Eps, seed+uint64(iter)+1, ws)
			if err != nil {
				return nil, err
			}
			return map[string]int64{
				"decompose": int64(computeNs),
				"profile":   int64(profileNs),
				"total":     int64(computeNs + profileNs),
			}, nil
		})
		experiments.SetParallelism(prev)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		for st, v := range stageNs {
			cb.add(li, st, v)
		}
	}
	return cb.curves(), nil
}

// sketchCollectCurves measures the fill+collect wave — the parallel CSR fold
// at the bottom of every decomposition — on one sketch workload.
func sketchCollectCurves(w benchwork.SketchWorkload, seed uint64, levels []int) ([]speedupCurve, error) {
	h, err := w.Build()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	cg, err := benchwork.NewSketchInstance(h, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	trials, err := benchwork.SketchTrials(w.Xi, h.N())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	eng := sketch.NewEngine(sketch.MaxKernel{})
	// Warm the arenas so the curve measures the reuse steady state.
	if _, err := benchwork.RunSketchWave(cg, eng, trials, seed); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	cb := newCurveBuilder(w.Name, levels)
	for li, par := range levels {
		prev := experiments.SetParallelism(par)
		stageNs, _, err := timeStageRuns(speedupMinWall, speedupMaxIters, func(iter int) (map[string]int64, error) {
			t0 := time.Now()
			if _, err := benchwork.RunSketchWave(cg, eng, trials, seed+uint64(iter)+1); err != nil {
				return nil, err
			}
			return map[string]int64{"collect": int64(time.Since(t0))}, nil
		})
		experiments.SetParallelism(prev)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		for st, v := range stageNs {
			cb.add(li, st, v)
		}
	}
	return cb.curves(), nil
}

// shardExchangeCurves measures the partitioned decomposition at two shards:
// total sharded wall plus the boundary-exchange share (ExchangeNs), at every
// grid level, on a fresh engine per level.
func shardExchangeCurves(w benchwork.ACDWorkload, seed uint64, levels []int) ([]speedupCurve, error) {
	h, err := w.Build()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	sg, err := graph.NewShardedGraph(h, 2)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	cg, err := benchwork.NewACDInstance(h, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	ws := acd.NewWorkspace()
	cb := newCurveBuilder(w.Name+"/shards=2", levels)
	for li, par := range levels {
		prev := experiments.SetParallelism(par)
		se := shard.NewEngine(sg, sketch.MaxKernel{})
		stageNs, _, err := timeStageRuns(speedupMinWall, speedupMaxIters, func(iter int) (map[string]int64, error) {
			se.ResetStats()
			t0 := time.Now()
			if _, _, err := benchwork.RunACDShardedOnce(cg, se, w.Eps, seed, ws); err != nil {
				return nil, err
			}
			return map[string]int64{
				"sharded-total": int64(time.Since(t0)),
				"exchange":      se.Stats.ExchangeNs,
			}, nil
		})
		experiments.SetParallelism(prev)
		if err != nil {
			return nil, fmt.Errorf("%s: shards=2: %w", w.Name, err)
		}
		for st, v := range stageNs {
			cb.add(li, st, v)
		}
	}
	return cb.curves(), nil
}

// speedupHeadline summarizes one workload's end-to-end curve: the serial
// cost, the best-scaling grid point, and — when the grid has it — the
// speedup at parallelism 4 (the acceptance lens of the multi-core story).
type speedupHeadline struct {
	Workload        string  `json:"workload"`
	Stage           string  `json:"stage"`
	SerialNsPerOp   float64 `json:"serial_ns_per_op"`
	BestParallelism int     `json:"best_parallelism"`
	BestSpeedup     float64 `json:"best_speedup"`
	SpeedupAtPar4   float64 `json:"speedup_at_parallelism_4,omitempty"`
}

// headlineOf extracts the summary row of an end-to-end curve; ok is false
// when the curve has no usable points.
func headlineOf(c speedupCurve) (speedupHeadline, bool) {
	h := speedupHeadline{Workload: c.Workload, Stage: c.Stage}
	for _, p := range c.Points {
		if p.SpeedupVsSerial <= 0 {
			continue
		}
		if h.SerialNsPerOp == 0 {
			h.SerialNsPerOp = p.NsPerOp * p.SpeedupVsSerial
		}
		if p.SpeedupVsSerial > h.BestSpeedup {
			h.BestSpeedup = p.SpeedupVsSerial
			h.BestParallelism = p.Parallelism
		}
		if p.Parallelism == 4 {
			h.SpeedupAtPar4 = p.SpeedupVsSerial
		}
	}
	return h, h.BestParallelism != 0
}

const speedupBenchNote = "per-stage wall-clock scaling curves; speedup_vs_serial compares each point with the curve's first measurable level; stage outputs are byte-identical at every parallelism level (internal/parwork determinism contract), so the curves move wall-clock only; degraded_grid=true means this box could not schedule more than one effective level — regenerate on a multi-core box for a real surface"

// speedupReport is the BENCH_speedup.json schema: the honest grid actually
// measured, per-stage curves over every pipeline mode (coloring, ACD,
// sketch collect, sharded exchange), and the end-to-end headline rows.
type speedupReport struct {
	Schema          string            `json:"schema"`
	GoMaxProcs      int               `json:"gomaxprocs"`
	NumCPU          int               `json:"num_cpu"`
	Seed            uint64            `json:"seed"`
	MaxN            int               `json:"max_n,omitempty"`
	RequestedLevels []int             `json:"requested_levels"`
	Levels          []int             `json:"levels"`
	DegradedGrid    bool              `json:"degraded_grid,omitempty"`
	Note            string            `json:"note"`
	Curves          []speedupCurve    `json:"curves"`
	Headline        []speedupHeadline `json:"headline,omitempty"`
}

// emitSpeedupBench measures the speedup-curve surface over the standard
// workload matrices (capped at maxN vertices; maxN ≤ 0 = no cap) and writes
// BENCH_speedup.json to path ("-" for stdout). requested is the parallelism
// grid to attempt (nil = 1, 2, 4, NumCPU).
func emitSpeedupBench(path string, seed uint64, maxN int, requested []int) error {
	return emitSpeedupBenchWorkloads(path, seed, maxN, requested,
		benchwork.ColorWorkloads(), benchwork.ACDWorkloads(), benchwork.SketchWorkloads())
}

// emitSpeedupBenchWorkloads is emitSpeedupBench over explicit workload
// matrices, so tests can exercise the emitter on small instances.
func emitSpeedupBenchWorkloads(path string, seed uint64, maxN int, requested []int,
	colorWs []benchwork.ColorWorkload, acdWs []benchwork.ACDWorkload, sketchWs []benchwork.SketchWorkload) error {
	if len(requested) == 0 {
		requested = defaultCurveGrid()
	}
	levels, degraded, err := parGrid("speedupbench", requested...)
	if err != nil {
		return err
	}
	if len(levels) == 0 {
		return fmt.Errorf("speedupbench: no usable parallelism levels in %v", requested)
	}
	report := speedupReport{
		Schema:          "clustercolor/bench-speedup/v1",
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		NumCPU:          runtime.NumCPU(),
		Seed:            seed,
		RequestedLevels: requested,
		Levels:          levels,
		DegradedGrid:    degraded,
		Note:            speedupBenchNote,
	}
	if maxN > 0 {
		report.MaxN = maxN
	}
	addAll := func(cs []speedupCurve) {
		for _, c := range cs {
			report.Curves = append(report.Curves, c)
			if c.Stage == "total" || c.Stage == "sharded-total" {
				if h, ok := headlineOf(c); ok {
					report.Headline = append(report.Headline, h)
				}
			}
		}
	}
	for _, w := range colorWs {
		if maxN > 0 && w.N > maxN {
			continue
		}
		h, err := w.Build()
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		cs, err := colorCurves(w, h, seed, levels)
		if err != nil {
			return err
		}
		addAll(cs)
	}
	var shardW *benchwork.ACDWorkload
	for i, w := range acdWs {
		if maxN > 0 && w.N > maxN {
			continue
		}
		if shardW == nil {
			shardW = &acdWs[i]
		}
		h, err := w.Build()
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		cg, err := benchwork.NewACDInstance(h, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		ws := acd.NewWorkspace()
		// Warm run so the curves measure the workspace-reuse steady state.
		if _, _, err := benchwork.RunACDOnce(cg, w.Eps, seed, ws); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		cs, err := acdCurves(w, cg, ws, seed, levels)
		if err != nil {
			return err
		}
		addAll(cs)
	}
	for _, w := range sketchWs {
		if maxN > 0 && w.N > maxN {
			continue
		}
		cs, err := sketchCollectCurves(w, seed, levels)
		if err != nil {
			return err
		}
		addAll(cs)
	}
	if shardW != nil {
		cs, err := shardExchangeCurves(*shardW, seed, levels)
		if err != nil {
			return err
		}
		addAll(cs)
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// parseParGrid parses a comma-separated parallelism grid ("1,2,4").
func parseParGrid(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("invalid parallelism grid %q: each level must be a positive integer", s)
		}
		out = append(out, v)
	}
	return out, nil
}
