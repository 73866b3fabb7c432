package main

import (
	"fmt"
	"time"
)

// minSetups is the fewest cluster-graph builds a timed run makes, so
// setup_s is always a median.
const minSetups = 3

// The color phase samples the reference kernel (refRepeats runs, median) before
// the first call, before any call that starts refEvery after the last sample,
// and once more at the end, so every call lies between two samples.
const (
	refEvery   = 2 * time.Second
	refRepeats = 3
)

// runTimed is the end-to-end run: tracing off, parallelism nproc. It builds
// the cluster graph repeatedly for an eighth of the budget, then colors it
// until the budget is spent, checking every output. The color metric in the
// JSON line is the median over calls of a call's CPU time over the mean of the
// reference kernel samples either side of it. CPU time leaves out what the
// hypervisor gives other guests (steal), and the ratio cancels much of the
// drift in host speed that CPU time still carries, which comes in steps of
// seconds. The raw CPU and wall times are
// printed as color_cpu_s and color_s on the metric lines and reported per
// layer by the traced run. setup_s is the CPU time of a build, for the same
// reason; set-up is mostly serial, so on a quiet host it reads like its wall
// time, which is printed as setup_wall_s.
func runTimed(in *instance, budget time.Duration) (res *result, err error) {
	ref, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := ref.close(); err == nil && cerr != nil {
			res, err = nil, fmt.Errorf("unmap reference table: %w", cerr)
		}
	}()
	res = &result{}
	start := time.Now()
	var b *built
	var setupWalls, setupCPU []float64
	for len(setupWalls) < minSetups || time.Since(start) < budget/8 {
		b = nil // let the previous build be collected before the next one
		nb, d, c, err := in.timeSetup()
		if err != nil {
			return nil, err
		}
		b = nb
		setupWalls = append(setupWalls, d.Seconds())
		setupCPU = append(setupCPU, c.Seconds())
	}
	// Stop before a call that would end past the budget, so a run lasts about
	// the budget however long one call takes.
	var walls, cpus, refs, samples []float64
	var before []int // before[i] indexes the last sample taken ahead of call i
	var lastRef time.Time
	takeSample := func() {
		refs = ref.sample(refs)
		samples = append(samples, summarize(refs[len(refs)-refRepeats:]).median)
		lastRef = time.Now()
	}
	for len(walls) == 0 || time.Since(start)+time.Duration(walls[len(walls)-1]*float64(time.Second)) <= budget {
		if time.Since(lastRef) >= refEvery {
			takeSample()
		}
		before = append(before, len(samples)-1)
		r := in.color(b, in.params, nil)
		res.gate.observe(in, fmt.Sprintf("Color call %d", len(walls)+1), r)
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
	}
	takeSample()
	perRef := make([]float64, len(cpus))
	for i, c := range cpus {
		perRef[i] = c / ((samples[before[i]] + samples[before[i]+1]) / 2)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	var p pinned
	if res.gate.ref != nil {
		p = *res.gate.ref
	}
	success := float64(res.gate.attempted-res.gate.failed) / float64(res.gate.attempted)
	q := summarize(perRef)
	res.add("color_cpu_per_ref", q.median, "x", len(perRef), fmt.Sprintf("min %.2f q1 %.2f q3 %.2f max %.2f; %d kernel samples",
		q.min, q.q1, q.q3, q.max, len(samples)))
	res.infoTimings("color_cpu_s", cpus)
	res.infoTimings("color_s", walls)
	res.infoTimings("ref_cpu_s", refs)
	res.addTimings("setup_s", setupCPU)
	res.infoTimings("setup_wall_s", setupWalls)
	res.add("peak_rss_mb", rss-mb(refTableBytes), "MB", 1, "VmHWM of this process less the reference table")
	res.add("rounds", float64(p.rounds), "rounds", res.gate.attempted, "charged G-rounds, identical on every call")
	res.add("max_payload_bits", float64(p.maxPayloadBits), "bits", res.gate.attempted, "largest charged message, identical on every call")
	// charged_bits is checked on every call but left out of the JSON line:
	// across seeds it varies with how many planted cliques the decomposition
	// classifies as cabals, more than any bound allows.
	res.info("charged_bits", float64(p.chargedBits), "bits", res.gate.attempted, "total charged bits, identical on every call")
	res.add("success_rate", 100*success, "%", res.gate.attempted, "")
	res.info("failure_rate", 1-success, "1", res.gate.attempted, fmt.Sprintf("%d failed / %d attempted", res.gate.failed, res.gate.attempted))
	return res, nil
}
