package main

import (
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"time"
	"unsafe"

	"clustercolor/internal/acd"
	"clustercolor/internal/coloring"
	"clustercolor/internal/fingerprint"
	"clustercolor/internal/graph"
	"clustercolor/internal/parwork"
	"clustercolor/internal/shard"
	"clustercolor/internal/sketch"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans stay in memory and are printed when the run ends.
type span struct {
	name       string
	parent     int // index of the enclosing span, -1 at the top
	start, end time.Duration
	alloc      uint64 // heap bytes allocated between begin and end
}

func (s span) dur() time.Duration { return s.end - s.start }

type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{name: name, parent: parent, alloc: allocatedBytes()})
	id := len(r.spans) - 1
	r.spans[id].start = time.Since(r.origin)
	return id
}

func (r *recorder) end(id int) {
	s := &r.spans[id]
	s.end = time.Since(r.origin)
	s.alloc = allocatedBytes() - s.alloc
}

// do records f as a span under parent and returns the span's index.
func (r *recorder) do(name string, parent int, f func() error) (int, error) {
	id := r.begin(name, parent)
	err := f()
	r.end(id)
	if err != nil {
		return id, fmt.Errorf("%s: %w", name, err)
	}
	return id, nil
}

func (r *recorder) secs(id int) float64 { return r.spans[id].dur().Seconds() }

// self is a span's duration minus the part its children cover.
func (r *recorder) self(id int) time.Duration {
	d := r.spans[id].dur()
	for _, s := range r.spans {
		if s.parent == id {
			d -= s.dur()
		}
	}
	return d
}

func (r *recorder) print() {
	fmt.Println("# spans (wall s, self s, allocated MB):")
	var walk func(parent, depth int)
	walk = func(parent, depth int) {
		for id, s := range r.spans {
			if s.parent == parent {
				fmt.Printf("#   %-30s %12.6f %12.6f %10.1f\n", strings.Repeat("  ", depth)+s.name,
					s.dur().Seconds(), r.self(id).Seconds(), mb(s.alloc))
				walk(id, depth+1)
			}
		}
	}
	walk(-1, 0)
}

// setupSteps names the spans of the set-up steps, indexed by setupStep.
var setupSteps = [...]string{"graph.expand", "network.cost_model", "cluster.new"}

// stages are the Stats.StageNs keys of core.Color in pipeline order. Each
// runs once per call or not at all, except exchange, which is the boundary
// exchange inside decompose and so is not summed into the ledger.
var stages = []string{"decompose", "slackgen", "sparse", "matchings", "scts", "palettes", "donate", "lowdegree", "fallback"}

// shardCount is the slice count of the sharded Color call and the standalone
// sharded decomposition.
const shardCount = 2

// runTraced runs each layer once under spans — set-up, Color (untraced, traced
// and serial), the independent verification, and standalone decomposition,
// sketch-wave and sharded calls on the same instance, each against a fresh
// cost model — and prints the per-layer ledger.
func runTraced(in *instance) (*result, error) {
	res := &result{}
	rec := newRecorder()
	h := in.h
	n := h.N()
	p := parwork.Parallelism()
	serial := func(f func()) {
		parwork.SetParallelism(1)
		defer parwork.SetParallelism(p)
		f()
	}

	// Set-up: generated H to ready cluster graph.
	settle()
	setup := rec.begin("setup", -1)
	var steps [len(setupSteps)]int
	b, err := in.build(func(st setupStep, f func() error) error {
		var err error
		steps[st], err = rec.do(setupSteps[st], setup, f)
		return err
	})
	rec.end(setup)
	if err != nil {
		return nil, err
	}
	setupUn := rec.self(setup)
	var stepDurs []time.Duration
	for _, id := range steps {
		stepDurs = append(stepDurs, rec.spans[id].dur())
	}
	res.closure("setup", rec.spans[setup].dur(), setupSteps[:], stepDurs, setupUn)
	res.add("graph.expand_s", rec.secs(steps[stepExpand]), "s", 1, "")
	res.add("graph.expand_alloc_mb", mb(rec.spans[steps[stepExpand]].alloc), "MB", 1, "")
	res.add("graph.machines", float64(b.exp.G.N()), "count", 1, "")
	res.add("graph.links", float64(b.exp.G.M()), "count", 1, "")
	res.add("cluster.new_s", rec.secs(steps[stepClusterNew]), "s", 1, "")
	res.add("cluster.dilation", float64(b.cg.Dilation), "count", 1, "")
	res.add("setup.unattributed_s", setupUn.Seconds(), "s", 1, "")

	// Coloring: an untraced call, the traced call, a serial call and a call
	// whose decomposition runs on shardCount shards. All four must pin the
	// same outputs (the sharded ≡ unsharded contract).
	base := in.color(b, in.params, nil)
	res.gate.observe(in, "untraced Color call", base)
	var colorSpan int
	traced := in.color(b, in.params, func(call func()) {
		colorSpan = rec.begin("core.color", -1)
		call()
		rec.end(colorSpan)
	})
	if !res.gate.observe(in, "traced Color call", traced) {
		return nil, fmt.Errorf("traced Color call failed; no ledger to report")
	}
	var verify int
	if verify, err = rec.do("coloring.verify", -1, func() error { return coloring.VerifyComplete(h, traced.col) }); err != nil {
		return nil, err
	}
	var one colorRun
	serial(func() { one = in.color(b, in.params, nil) })
	res.gate.observe(in, "serial Color call", one)
	shardedParams := in.params
	shardedParams.Shards = shardCount
	shardedRun := in.color(b, shardedParams, nil)
	res.gate.observe(in, "sharded Color call", shardedRun)

	st := traced.stats
	colorNs := rec.spans[colorSpan].dur()
	parts := make([]time.Duration, len(stages))
	var staged time.Duration
	for i, name := range stages {
		parts[i] = time.Duration(st.StageNs[name])
		staged += parts[i]
	}
	colorUn := colorNs - staged
	res.closure("core.color", colorNs, stages, parts, colorUn)
	pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(colorNs) }
	for i, name := range stages {
		if name == "fallback" {
			// Fallback always runs, so its time goes into the JSON as is.
			res.add("core.fallback_s", parts[i].Seconds(), "s", 1, "")
			continue
		}
		if _, ran := st.StageNs[name]; ran {
			res.info("core."+name+"_s", parts[i].Seconds(), "s", 0, "")
		} else {
			res.info("core."+name+"_s", 0, "s", 0, "n/a: stage did not run on this "+st.Path+" call")
		}
		res.add("core."+name+"_pct", pct(parts[i]), "%", 1, "share of the traced core.color span")
	}
	exchange := time.Duration(shardedRun.stats.StageNs["exchange"])
	if _, ran := shardedRun.stats.StageNs["exchange"]; ran {
		res.info("core.exchange_s", exchange.Seconds(), "s", 0, "boundary exchange of the sharded call, inside decompose")
	} else {
		res.info("core.exchange_s", 0, "s", 0, "n/a: the "+st.Path+" path does not decompose")
	}
	res.add("core.exchange_pct", 100*exchange.Seconds()/shardedRun.wall.Seconds(), "%", 1,
		fmt.Sprintf("share of the untraced %d-shard core.color call", shardCount))
	res.add("core.unattributed_s", colorUn.Seconds(), "s", 1, fmt.Sprintf("%.3f%% of core.color", pct(colorUn)))
	res.add("network.charged_bits", float64(traced.cost.TotalBits()), "bits", 1, "CostModel.TotalBits of the traced call")
	res.add("core.color_alloc_mb", mb(rec.spans[colorSpan].alloc), "MB", 1, "")
	res.add("core.color_speedup", one.wall.Seconds()/base.wall.Seconds(), "x", 2, fmt.Sprintf("parallelism 1 → %d, untraced calls", p))
	stageColored := n - st.FallbackColored
	res.add("core.fallback_rounds", float64(st.FallbackRounds), "rounds", 1, "")
	res.add("core.fallback_colored", float64(st.FallbackColored), "count", 1, "")
	res.add("core.fallback_share", float64(st.FallbackColored)/float64(n), "1", 1, "fallback-colored / n")
	res.add("core.dropped_writes", float64(st.ParallelDroppedWrites), "count", 1, "")
	res.add("core.dropped_write_share", float64(st.ParallelDroppedWrites)/float64(max(stageColored, 1)), "1", 1, "dropped / stage-colored")
	res.add("coloring.verify_s", rec.secs(verify), "s", 1, "")
	res.add("trace.overhead_s", (colorNs - base.wall).Seconds(), "s", 2, "traced − untraced core.color")
	res.add("core.color_s", base.wall.Seconds(), "s", 1, "wall time of the untraced core.color call")
	res.add("core.color_cpu_s", base.cpu.Seconds(), "s", 1, "CPU time of the untraced core.color call")
	res.info("color_s", colorNs.Seconds(), "s", 0, "traced core.color span")
	res.info("setup_wall_s", rec.secs(setup), "s", 0, "traced setup span")

	// Standalone decomposition on a fresh cost model, seeded like Color's
	// stream so the high-degree path's decomposition is reproduced exactly.
	eps, delta, ell := in.params.Eps, float64(h.MaxDegree()), in.params.Ell(n)
	acdCost := b.fresh()
	acg := b.cg.WithCost(acdCost)
	ws := acd.NewWorkspace()
	rng := parwork.StreamRNG(in.params.Seed)
	var d *acd.Decomposition
	var prof *acd.Profile
	settle()
	compute, err := rec.do("acd.compute", -1, func() (err error) { d, err = acd.ComputeWith(acg, eps, rng, ws); return })
	if err != nil {
		return nil, err
	}
	profile, err := rec.do("acd.profile", -1, func() (err error) {
		prof, err = acd.BuildProfileWith(acg, d, delta, ell, rng, ws)
		return
	})
	if err != nil {
		return nil, err
	}
	cabals := 0
	for _, c := range prof.IsCabal {
		if c {
			cabals++
		}
	}
	sparse := 0
	for v := 0; v < n; v++ {
		if d.IsSparse(v) {
			sparse++
		}
	}
	if st.Path == "high-degree" && (st.NumCliques != len(d.Cliques) || st.NumCabals != cabals || st.NumSparse != sparse || st.DecompRounds != acdCost.Rounds()) {
		res.problem("standalone decomposition", fmt.Errorf("cliques/cabals/sparse/rounds %d/%d/%d/%d, Color's %d/%d/%d/%d",
			len(d.Cliques), cabals, sparse, acdCost.Rounds(), st.NumCliques, st.NumCabals, st.NumSparse, st.DecompRounds))
	}
	var serialCompute time.Duration
	serial(func() {
		ws1 := acd.NewWorkspace()
		settle()
		start := time.Now()
		d1, err := acd.ComputeWith(b.cg.WithCost(b.fresh()), eps, parwork.StreamRNG(in.params.Seed), ws1)
		serialCompute = time.Since(start)
		if err != nil {
			res.problem("serial decomposition", err)
		} else if !slices.Equal(d1.CliqueOf, d.CliqueOf) {
			res.problem("serial decomposition", fmt.Errorf("differs from the parallel one"))
		}
	})

	// One standalone sketch wave at the decomposition's trial count: fill,
	// collect fold with payload pricing, and estimates.
	t, err := fingerprint.TrialsFor(eps/4, n)
	if err != nil {
		return nil, err
	}
	eng := sketch.NewEngine[int8](sketch.MaxKernel{})
	settle()
	fill, err := rec.do("sketch.fill", -1, func() error { return eng.FillSamples(n, t, parwork.RowSeed(in.seed, 0)) })
	if err != nil {
		return nil, err
	}
	wave := func() error {
		_, err := eng.Collect(b.cg.WithCost(b.fresh()), "perfbench/sketch", sketch.CollectOptions{})
		return err
	}
	collect, err := rec.do("sketch.collect", -1, wave)
	if err != nil {
		return nil, err
	}
	est := make([]float64, n)
	estimate, err := rec.do("sketch.estimate", -1, func() error {
		return parwork.ForRange(n, func(lo, hi int) error {
			var e sketch.MaxEstimator[int8]
			for v := lo; v < hi; v++ {
				est[v] = e.Estimate(eng.Row(v))
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	digest := arenaCRC(eng, n)
	var serialCollect time.Duration
	serial(func() {
		settle()
		start := time.Now()
		err := wave()
		serialCollect = time.Since(start)
		if err != nil {
			res.problem("serial sketch collect", err)
		} else if arenaCRC(eng, n) != digest {
			res.problem("serial sketch collect", fmt.Errorf("rows differ from the parallel collect"))
		}
	})
	// The decomposition runs two waves: the plain neighborhood wave, which the
	// standalone wave reproduces exactly, and a buddy-count wave whose fill
	// and estimates are the same work again but whose collect folds only
	// buddy edges. Self time keeps that predicated collect, the predicate,
	// mirror and assemble.
	siblings := 2*rec.secs(fill) + rec.secs(collect) + 2*rec.secs(estimate)
	collectBytes := 2 * float64(h.M()) * float64(t)
	res.add("acd.compute_s", rec.secs(compute), "s", 1, "")
	res.add("acd.profile_s", rec.secs(profile), "s", 1, "")
	res.add("acd.self_s", rec.secs(compute)-siblings, "s", 1, "acd.compute_s − (2·fill + collect + 2·estimate)")
	res.add("acd.compute_alloc_mb", mb(rec.spans[compute].alloc), "MB", 1, "fresh workspace")
	res.add("acd.compute_speedup", serialCompute.Seconds()/rec.secs(compute), "x", 2, fmt.Sprintf("parallelism 1 → %d", p))
	res.add("acd.rounds", float64(acdCost.Rounds()), "rounds", 1, "compute + profile")
	res.add("acd.cliques", float64(len(d.Cliques)), "count", 1, "")
	res.add("acd.cabals", float64(cabals), "count", 1, "")
	res.add("acd.sparse", float64(sparse), "count", 1, "")
	res.add("sketch.fill_s", rec.secs(fill), "s", 1, "")
	res.add("sketch.collect_s", rec.secs(collect), "s", 1, "fold + payload pricing")
	res.add("sketch.estimate_s", rec.secs(estimate), "s", 1, "")
	res.add("sketch.trials", float64(t), "count", 1, "")
	res.add("sketch.collect_bytes_computed", collectBytes, "bytes", 1, "2·m·t, computed, not measured")
	res.add("sketch.collect_gbps", collectBytes/rec.secs(collect)/1e9, "GB/s", 1, "computed bytes / collect time")
	res.add("sketch.collect_speedup", serialCollect.Seconds()/rec.secs(collect), "x", 2, fmt.Sprintf("parallelism 1 → %d", p))

	// Standalone sharded decomposition + profile: it must reproduce the
	// unsharded decomposition, cabals and charged rounds exactly.
	sg, err := graph.NewShardedGraph(h, shardCount)
	if err != nil {
		return nil, err
	}
	se := shard.NewEngine(sg, sketch.MaxKernel{})
	shardCost := b.fresh()
	scg := b.cg.WithCost(shardCost)
	srng := parwork.StreamRNG(in.params.Seed)
	var sd *acd.Decomposition
	var sprof *acd.Profile
	settle()
	sharded, err := rec.do("shard.compute", -1, func() error {
		sws := acd.NewWorkspace()
		var err error
		if sd, err = acd.ComputeShardedWith(scg, se, eps, srng, sws); err != nil {
			return err
		}
		sprof, err = acd.BuildProfileShardedWith(scg, se, sd, delta, ell, srng, sws)
		return err
	})
	if err != nil {
		return nil, err
	}
	if !slices.Equal(sd.CliqueOf, d.CliqueOf) || !slices.Equal(sprof.IsCabal, prof.IsCabal) || shardCost.Rounds() != acdCost.Rounds() {
		res.problem("sharded decomposition", fmt.Errorf("differs from the unsharded one (rounds %d vs %d)", shardCost.Rounds(), acdCost.Rounds()))
	}
	exch := time.Duration(se.Stats.ExchangeNs)
	res.add("shard.compute_s", rec.secs(sharded), "s", 1, fmt.Sprintf("%d shards, compute + profile", shardCount))
	res.add("shard.exchange_s", exch.Seconds(), "s", 1, "")
	res.add("shard.exchange_share", exch.Seconds()/rec.secs(sharded), "1", 1, "")
	res.add("shard.exchanged_rows", float64(se.Stats.Rows), "count", 1, "")
	res.add("shard.exchanged_bits", float64(se.Stats.Bits), "bits", 1, "")

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.info("peak_rss_mb", rss, "MB", 0, "VmHWM of the traced run")
	rec.print()
	return res, nil
}

// arenaCRC digests the output rows of the engine's latest collect.
func arenaCRC(eng *sketch.Engine[int8], n int) uint32 {
	tab := crc32.MakeTable(crc32.Castagnoli)
	var sum uint32
	for v := 0; v < n; v++ {
		row := eng.Row(v)
		if len(row) > 0 {
			sum = crc32.Update(sum, tab, unsafe.Slice((*byte)(unsafe.Pointer(&row[0])), len(row)))
		}
	}
	return sum
}
