// Command perfbench is clustercolor's benchmark: it colors one generated
// workload repeatedly and prints the end-to-end metrics, or, with -trace 1,
// runs each layer once under in-memory spans and prints the per-layer
// ledger. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 8, "failed": 0, "metrics": {"color_cpu_per_ref": {"value": 66.2, "unit": "x"}, ...}}
//
// Run it through run.py, which builds this package from the checkout it
// sits in:
//
//	python3 perfbench/run.py --workload gnp-sparse --seed 1 --seconds 35 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"clustercolor/internal/parwork"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run: gnp-sparse, planted-dense or clustered-lowdeg")
	seed := flag.Uint64("seed", 1, "seed the workload's input graph and the algorithm derive from")
	seconds := flag.Float64("seconds", 20, "how long the timed run measures")
	trace := flag.Int("trace", 0, "0: timed end-to-end run; 1: traced per-layer run")
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 || math.IsNaN(seconds) {
		return fmt.Errorf("-seconds %v must be positive", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d must be 0 or 1", trace)
	}
	parwork.SetParallelism(runtime.NumCPU())
	printProvenance(w, seed)
	in, err := newInstance(w, seed)
	if err != nil {
		return err
	}
	fmt.Printf("# instance: n=%d m=%d Δ=%d topology=%v machines/cluster=%d redundant=%d\n",
		in.h.N(), in.h.M(), in.h.MaxDegree(), w.spec.Topology, w.spec.MachinesPerCluster, w.spec.RedundantLinks)
	var res *result
	if trace == 1 {
		res, err = runTraced(in)
	} else {
		res, err = runTimed(in, time.Duration(seconds*float64(time.Second)))
	}
	if err != nil {
		return err
	}
	return res.emit()
}

// printProvenance records where and how the numbers were produced.
func printProvenance(w workload, seed uint64) {
	rev, modified, goVersion := "unknown", "", runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
	}
	fmt.Printf("# provenance: revision=%s%s go=%s cpu=%q nproc=%d gomaxprocs=%d parallelism=%d workload=%s seed=%d date=%s\n",
		rev, modified, goVersion, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), parwork.Parallelism(),
		w.name, seed, time.Now().UTC().Format(time.RFC3339))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// allocatedBytes is the cumulative heap allocation of the process.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// metric is one named figure of the result line.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
	note    string
	// shownOnly metrics are printed for the reader and left out of the
	// JSON line.
	shownOnly bool
}

// result is what a run prints: metric lines for a reader, then the JSON line.
type result struct {
	gate    gate
	broken  int
	metrics []metric
}

func (r *result) add(name string, value float64, unit string, samples int, note string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, samples: samples, note: note})
}

// info prints a figure for the reader without adding it to the JSON line.
func (r *result) info(name string, value float64, unit string, samples int, note string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, samples: samples, note: note, shownOnly: true})
}

// closure prints a ledger line — a parent's wall time as the sum of its
// parts plus the unattributed remainder, in nanoseconds so the identity is
// exact — and records a problem if the parts overrun the parent.
func (r *result) closure(parent string, total time.Duration, names []string, parts []time.Duration, unattributed time.Duration) {
	sum := unattributed
	terms := make([]string, 0, len(parts)+1)
	for i, d := range parts {
		sum += d
		terms = append(terms, fmt.Sprintf("%s %d", names[i], d.Nanoseconds()))
	}
	terms = append(terms, fmt.Sprintf("unattributed %d", unattributed.Nanoseconds()))
	fmt.Printf("# ledger %s: %d ns = %s (unattributed %.3f%%, closes exactly: %v)\n",
		parent, total.Nanoseconds(), strings.Join(terms, " + "), 100*float64(unattributed)/float64(total), sum == total)
	if sum != total || unattributed < 0 {
		r.problem("ledger "+parent, fmt.Errorf("parts overrun or miss the parent: unattributed %v", unattributed))
	}
}

// addTimings adds the median of xs (seconds); the metric line also shows
// the sample count and quartiles.
func (r *result) addTimings(name string, xs []float64) {
	r.metrics = append(r.metrics, timings(name, xs))
}

// infoTimings prints the median of xs like addTimings, outside the JSON line.
func (r *result) infoTimings(name string, xs []float64) {
	m := timings(name, xs)
	m.shownOnly = true
	r.metrics = append(r.metrics, m)
}

func timings(name string, xs []float64) metric {
	q := summarize(xs)
	return metric{name: name, value: q.median, unit: "s", samples: len(xs),
		note: fmt.Sprintf("min %.4f q1 %.4f q3 %.4f max %.4f", q.min, q.q1, q.q3, q.max)}
}

// problem records a failed check that is not a Color call: the run goes on,
// and the result is marked incorrect.
func (r *result) problem(what string, err error) {
	r.broken++
	fmt.Printf("FAIL %s: %v\n", what, err)
}

func (r *result) emit() error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.gate.failed == 0 && r.broken == 0 && r.gate.attempted > 0,
		Attempted: r.gate.attempted,
		Failed:    r.gate.failed,
		Metrics:   make(map[string]value, len(r.metrics)),
	}
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-34s %16.6f %-6s", m.name, m.value, m.unit)
		if m.samples > 0 {
			line += fmt.Sprintf(" n=%d", m.samples)
		}
		if m.note != "" {
			line += "  " + m.note
		}
		fmt.Println(line)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		if !m.shownOnly {
			out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
		}
	}
	js, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	return nil
}

// spread is the five-number summary of a sample.
type spread struct{ min, q1, median, q3, max float64 }

// summarize returns the five-number summary of xs, interpolating quantiles
// linearly between order statistics.
func summarize(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return spread{min: s[0], q1: at(0.25), median: at(0.5), q3: at(0.75), max: s[len(s)-1]}
}
