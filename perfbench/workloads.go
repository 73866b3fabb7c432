package main

import (
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"syscall"
	"time"

	"clustercolor"
	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/core"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
)

// workload is one benchmark instance family: a generator for the input graph
// H and the cluster expansion that turns H into the network G.
type workload struct {
	name string
	gen  func(seed uint64) (*graph.Graph, error)
	spec graph.ExpandSpec
}

func gnp(n int, deg float64) func(seed uint64) (*graph.Graph, error) {
	return func(seed uint64) (*graph.Graph, error) {
		return graph.GNP(n, deg/float64(n), graph.NewRand(seed))
	}
}

var singleton = graph.ExpandSpec{Topology: graph.TopologySingleton, MachinesPerCluster: 1}

// workloads lists the instances; README.md records why each was chosen and
// which layers it stresses.
var workloads = []workload{
	{name: "gnp-sparse", gen: gnp(50_000, 64), spec: singleton},
	{
		name: "planted-dense",
		gen: func(seed uint64) (*graph.Graph, error) {
			h, _, err := graph.PlantedACD(graph.PlantedACDSpec{
				NumCliques:     120,
				CliqueSize:     100,
				DropFraction:   0.05,
				ExternalDegree: 4,
				SparseN:        6000,
				SparseP:        8.0 / 6000,
			}, graph.NewRand(seed))
			return h, err
		},
		spec: singleton,
	},
	{
		name: "clustered-lowdeg",
		gen:  gnp(200_000, 32),
		spec: graph.ExpandSpec{Topology: graph.TopologyTree, MachinesPerCluster: 4, RedundantLinks: 2},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// instance is a generated input plus the parameters every Color call on it
// uses. Generation is the benchmark's own work and is never timed.
type instance struct {
	w      workload
	seed   uint64
	h      *graph.Graph
	params core.Params
}

func newInstance(w workload, seed uint64) (*instance, error) {
	h, err := w.gen(seed)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.name, err)
	}
	params := core.DefaultParams(h.N())
	params.Seed = seed
	return &instance{w: w, seed: seed, h: h, params: params}, nil
}

// setupStep is one of the three library calls that turn H into a ready
// cluster graph, in the order clustercolor.Color makes them.
type setupStep int

const (
	stepExpand setupStep = iota
	stepCostModel
	stepClusterNew
)

// built is a ready cluster graph and the bandwidth its cost model charges at.
type built struct {
	cg        *cluster.CG
	exp       *graph.Expansion
	bandwidth int
}

// build runs graph.Expand → network.NewCostModel → cluster.New exactly as
// clustercolor.Color does. around wraps each step, so the traced run can
// record a span per layer and the timed run can pass a no-op.
func (in *instance) build(around func(setupStep, func() error) error) (*built, error) {
	b := &built{}
	var cost *network.CostModel
	err := around(stepExpand, func() error {
		var err error
		b.exp, err = graph.Expand(in.h, in.w.spec, graph.NewRand(in.seed^0xa5a5a5a5))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("graph.Expand: %w", err)
	}
	b.bandwidth = clustercolor.DefaultBandwidth(b.exp.G.N())
	if err := around(stepCostModel, func() error {
		var err error
		cost, err = network.NewCostModel(b.bandwidth)
		return err
	}); err != nil {
		return nil, fmt.Errorf("network.NewCostModel: %w", err)
	}
	if err := around(stepClusterNew, func() error {
		var err error
		b.cg, err = cluster.New(in.h, b.exp, cost)
		return err
	}); err != nil {
		return nil, fmt.Errorf("cluster.New: %w", err)
	}
	return b, nil
}

func untimed(_ setupStep, f func() error) error { return f() }

// settle collects garbage and returns the freed memory to the OS before a
// measured call, so no call pays for its predecessor's garbage and the peak
// RSS reflects one call's working set rather than heap the runtime kept from
// the calls before it.
func settle() { debug.FreeOSMemory() }

// cpuTime is the CPU time the process has used so far, user plus system,
// summed over all its threads (the garbage collector's included). Time the
// host's hypervisor runs other guests on this machine's vCPUs (steal) is not
// counted, which is why the end-to-end color metric reads it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timeSetup builds the cluster graph once and returns it with the wall and
// CPU time from generated H to ready cluster graph.
func (in *instance) timeSetup() (b *built, wall, cpu time.Duration, err error) {
	settle()
	start, c0 := time.Now(), cpuTime()
	b, err = in.build(untimed)
	return b, time.Since(start), cpuTime() - c0, err
}

// fresh returns a cost model at the instance bandwidth, so every call
// charges from zero and never perturbs another call's pinned outputs.
func (b *built) fresh() *network.CostModel {
	cost, err := network.NewCostModel(b.bandwidth)
	if err != nil {
		// The bandwidth already built one cost model in build.
		panic(err)
	}
	return cost
}

// pinned are the outputs that must repeat exactly across iterations, across
// parallelism levels, and between the sharded and unsharded substrates.
type pinned struct {
	rounds         int64
	maxPayloadBits int
	chargedBits    int64
	cliques        int
	cabals         int
	sparse         int
	colorDigest    uint64
}

func (p pinned) String() string {
	return fmt.Sprintf("rounds=%d max_payload_bits=%d charged_bits=%d cliques=%d cabals=%d sparse=%d coloring=%016x",
		p.rounds, p.maxPayloadBits, p.chargedBits, p.cliques, p.cabals, p.sparse, p.colorDigest)
}

// colorRun is one core.Color call on a fresh cost model.
type colorRun struct {
	col   *coloring.Coloring
	stats *core.Stats
	cost  *network.CostModel
	wall  time.Duration
	cpu   time.Duration
	err   error
}

// color makes one core.Color call on a fresh cost model after settle. around,
// when non-nil, wraps the call itself (the traced run records a span there).
func (in *instance) color(b *built, params core.Params, around func(call func())) colorRun {
	r := colorRun{cost: b.fresh()}
	cg := b.cg.WithCost(r.cost)
	call := func() {
		start, c0 := time.Now(), cpuTime()
		r.col, r.stats, r.err = core.Color(cg, params)
		r.wall = time.Since(start)
		r.cpu = cpuTime() - c0
	}
	settle()
	if around == nil {
		call()
	} else {
		around(call)
	}
	return r
}

// check is the benchmark's own correctness gate: the call returned no error,
// and the coloring is total, proper and within Δ+1 colors of H, verified
// independently of the check inside Color.
func (in *instance) check(r colorRun) error {
	if r.err != nil {
		return fmt.Errorf("core.Color: %w", r.err)
	}
	delta := in.h.MaxDegree()
	if r.col.Delta() != delta {
		return fmt.Errorf("coloring built for Δ=%d, H has Δ=%d", r.col.Delta(), delta)
	}
	if err := coloring.VerifyComplete(in.h, r.col); err != nil {
		return err
	}
	if k := r.col.CountColors(); k > delta+1 {
		return fmt.Errorf("%d colors used, Δ+1 = %d", k, delta+1)
	}
	return nil
}

func (r colorRun) pin() pinned {
	h := fnv.New64a()
	var buf [4]byte
	for v := 0; v < r.col.N(); v++ {
		c := uint32(r.col.Get(v))
		buf[0], buf[1], buf[2], buf[3] = byte(c), byte(c>>8), byte(c>>16), byte(c>>24)
		h.Write(buf[:])
	}
	return pinned{
		rounds:         r.stats.Rounds,
		maxPayloadBits: r.cost.MaxPayload(),
		chargedBits:    r.cost.TotalBits(),
		cliques:        r.stats.NumCliques,
		cabals:         r.stats.NumCabals,
		sparse:         r.stats.NumSparse,
		colorDigest:    h.Sum64(),
	}
}

// gate counts Color calls and their failures. A failure is recorded and the
// run goes on, so one bad call costs a sample, not the run.
type gate struct {
	attempted, failed int
	ref               *pinned
}

// observe checks r and, when it is correct, its pinned outputs against the
// first correct call's. It returns whether r counts as a success.
func (g *gate) observe(in *instance, what string, r colorRun) bool {
	g.attempted++
	if err := in.check(r); err != nil {
		g.fail(what, err)
		return false
	}
	p := r.pin()
	if g.ref == nil {
		g.ref = &p
		return true
	}
	if p != *g.ref {
		g.fail(what, fmt.Errorf("pinned outputs moved:\n  want %v\n  got  %v", *g.ref, p))
		return false
	}
	return true
}

func (g *gate) fail(what string, err error) {
	g.failed++
	fmt.Printf("FAIL %s: %v\n", what, err)
}
