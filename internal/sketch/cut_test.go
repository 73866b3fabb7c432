package sketch

import (
	"math"
	"math/rand/v2"
	"testing"

	"clustercolor/internal/graph"
	"clustercolor/internal/parwork"
)

// harmonicMeanExp2 is harmonicMean as it read before the 2^−k table: the
// reference the table must reproduce bit for bit.
func harmonicMeanExp2(d float64) float64 {
	var sum, prev float64
	for y := 0; y < len(logTail); y++ {
		arg := d * logTail[y]
		var f float64
		switch {
		case arg < -40:
			f = 0
		case arg > -1e-12:
			f = 1
		default:
			f = math.Exp(arg)
		}
		sum += math.Exp2(-float64(y)) * (f - prev)
		if f == 1 {
			return sum
		}
		prev = f
	}
	return sum
}

// estimateExp2 is MaxEstimator.Estimate in its math.Exp2 formulation: the
// same histogram, harmonic sum and damped log-Newton, with every power of
// two computed by math.Exp2.
func estimateExp2(row []int8) float64 {
	t := len(row)
	if t == 0 {
		return 0
	}
	hist := make([]int, maxTrackedY+2)
	for _, y := range row {
		k := int(y)
		if k > maxTrackedY {
			k = maxTrackedY
		}
		hist[k+1]++
	}
	if hist[0] == t {
		return 0
	}
	var sum float64
	for k, c := range hist {
		if c > 0 {
			sum += float64(c) * math.Exp2(-float64(k-1))
		}
	}
	S := sum / float64(t)
	d := 1 / S
	for i := 0; i < 48; i++ {
		g := harmonicMeanExp2(d)
		if g <= 0 {
			break
		}
		ratio := g / S
		if math.Abs(ratio-1) < 1e-10 {
			break
		}
		d *= ratio
	}
	return d
}

// TestHistWeightTable pins the 2^−k table: it must cover every exponent
// harmonicMean (2^−y for y < len(logTail)) and the histogram sum (bucket k
// weighs 2^−(k−1), k ≤ maxTrackedY+1) read, and every entry must equal
// math.Exp2 of its exponent bit for bit.
func TestHistWeightTable(t *testing.T) {
	if len(histWeight) < len(logTail)+1 || len(histWeight) < maxTrackedY+2 {
		t.Fatalf("histWeight has %d entries; harmonicMean reads %d, the histogram %d",
			len(histWeight), len(logTail)+1, maxTrackedY+2)
	}
	for k, w := range histWeight {
		if want := math.Exp2(-float64(k - 1)); math.Float64bits(w) != math.Float64bits(want) {
			t.Fatalf("histWeight[%d] = %v, math.Exp2(%d) = %v", k, w, 1-k, want)
		}
	}
}

// TestHarmonicMeanTableBitIdentity: the table-driven harmonicMean must equal
// its math.Exp2 formulation bit for bit over a dense grid of d, from the
// flat region below 10⁻¹² to the region above 10²¹ where the law vanishes.
func TestHarmonicMeanTableBitIdentity(t *testing.T) {
	check := func(d float64) {
		if got, want := harmonicMean(d), harmonicMeanExp2(d); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("harmonicMean(%v) = %v, math.Exp2 formulation %v", d, got, want)
		}
	}
	check(0)
	for e := -45.0; e <= 75; e += 1.0 / 64 {
		check(math.Exp2(e))
	}
	for d := 1; d <= 5000; d++ {
		check(float64(d))
	}
}

// TestEstimateTableBitIdentity: Estimate — histogram sum and inversion —
// must equal its math.Exp2 formulation bit for bit on organic, random,
// saturated, all-saturated and all-empty rows.
func TestEstimateTableBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	var rows [][]int8
	for i, d := range []int{1, 2, 10, 100, 1000, 20000} {
		rows = append(rows, mergedRow[int8](MaxKernel{}, 257, d, 0x5eed+uint64(i)))
	}
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.IntN(300)
		rows = append(rows, randMaxRow(rng, width), randMaxRowSaturated(rng, width))
	}
	for _, v := range []int8{Empty, 0, maxTrackedY, MaxCell8} {
		row := make([]int8, 64)
		for i := range row {
			row[i] = v
		}
		rows = append(rows, row)
	}
	var est MaxEstimator[int8]
	for _, row := range rows {
		if got, want := est.Estimate(row), estimateExp2(row); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Estimate = %v, math.Exp2 formulation %v (row %v)", got, want, row)
		}
	}
}

// TestInvertHarmonicConverges pins the two facts MergedAtMost's exactness
// rests on, over a dense grid of every statistic a row can produce
// (2^−64 ≤ S ≤ 2): the inversion converges for S ≤ 0.676, a margin above
// harmonicMean(1) = 2/3, and wherever it does not converge it stops at
// some d̂ < 1.
func TestInvertHarmonicConverges(t *testing.T) {
	if got := harmonicMean(1); got > 0.676/(1+cutBand) {
		t.Fatalf("harmonicMean(1) = %v leaves no margin below 0.676", got)
	}
	for e := -64.0; e <= 1; e += 1.0 / 4096 {
		S := math.Exp2(e)
		d, ok := invertHarmonic(S)
		if S <= 0.676 && !ok {
			t.Fatalf("inversion of S = %v did not converge (d̂ = %v)", S, d)
		}
		if !ok && !(d < 1) {
			t.Fatalf("unconverged inversion of S = %v stopped at d̂ = %v ≥ 1", S, d)
		}
	}
}

// checkDecision asserts MergedAtMost(a, b, NewCut(d)) equals the
// EstimateMerged reference, and — when d is a banded cut (d ≥ 1) and the
// merged statistic falls inside its guard band — that the inversion behind
// the reference converged. It reports whether the statistic was in band.
func checkDecision(t testing.TB, est *MaxEstimator[int8], a, b []int8, d float64) bool {
	t.Helper()
	cut := NewCut(d)
	ref := est.EstimateMerged(a, b)
	if got, want := est.MergedAtMost(a, b, cut), ref <= d; got != want {
		t.Fatalf("MergedAtMost(cut %v) = %v, EstimateMerged = %v (t=%d)", d, got, ref, len(a))
	}
	if len(a) == 0 || !(d >= 1) {
		return false
	}
	est.fillMerged(a, b)
	S := est.harmonicStat(len(a))
	if S < cut.lo || S > cut.hi {
		return false
	}
	if _, ok := invertHarmonic(S); !ok {
		t.Fatalf("in-band statistic S = %v (cut %v): inversion did not converge", S, d)
	}
	return true
}

// checkBandCuts runs checkDecision at the reference estimate itself, just
// around it, and at the cuts whose S* sits just inside and outside the
// guard band around the merged statistic.
func checkBandCuts(t testing.TB, est *MaxEstimator[int8], a, b []int8) {
	t.Helper()
	ref := est.EstimateMerged(a, b)
	for _, f := range []float64{1, 1 - 1e-9, 1 + 1e-9, 1 - 1e-7, 1 + 1e-7} {
		checkDecision(t, est, a, b, ref*f)
	}
	if len(a) == 0 {
		return
	}
	est.fillMerged(a, b)
	S := est.harmonicStat(len(a))
	for _, f := range []float64{1 - 2e-6, 1 - 1e-6, 1 - 5e-7, 1 + 5e-7, 1 + 1e-6, 1 + 2e-6} {
		d, _ := invertHarmonic(S * f)
		checkDecision(t, est, a, b, d)
	}
}

// TestMergedAtMostOnGraphs is the decision differential on collected rows:
// on every forward edge of a planted almost-clique instance and of a GNP
// instance, MergedAtMost must agree with EstimateMerged <= cut at the
// decomposition's own cuts (1+1.5ξ)Δ and at cuts spread around Δ.
func TestMergedAtMostOnGraphs(t *testing.T) {
	planted, _, err := graph.PlantedACD(graph.PlantedACDSpec{
		NumCliques: 6, CliqueSize: 40, DropFraction: 0.1, ExternalDegree: 3,
		SparseN: 300, SparseP: 0.03,
	}, graph.NewRand(41))
	if err != nil {
		t.Fatal(err)
	}
	gnp, err := graph.GNP(600, 0.05, graph.NewRand(42))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"planted": planted, "gnp": gnp} {
		eng := Engine[int8]{Kernel: MaxKernel{}}
		if err := eng.FillSamples(g.N(), 1576, parwork.RowSeed(43, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Collect(testCG(t, g, 44), "decision", CollectOptions{}); err != nil {
			t.Fatal(err)
		}
		delta := float64(g.MaxDegree())
		ds := []float64{1.09375 * delta, 1.1875 * delta}
		for f := 0.5; f <= 2; f += 0.125 {
			ds = append(ds, f*delta)
		}
		cuts := make([]Cut, len(ds))
		for i, d := range ds {
			cuts[i] = NewCut(d)
		}
		var est MaxEstimator[int8]
		edges, inBand := 0, 0
		for v := 0; v < g.N(); v++ {
			for _, u32 := range g.Neighbors(v) {
				u := int(u32)
				if u <= v {
					continue
				}
				edges++
				a, b := eng.Row(v), eng.Row(u)
				ref := est.EstimateMerged(a, b)
				est.fillMerged(a, b)
				S := est.harmonicStat(len(a))
				for i, cut := range cuts {
					if got, want := est.MergedAtMost(a, b, cut), ref <= ds[i]; got != want {
						t.Fatalf("%s edge (%d,%d): MergedAtMost(cut %v) = %v, EstimateMerged = %v", name, v, u, ds[i], got, ref)
					}
					if S >= cut.lo && S <= cut.hi {
						inBand++
					}
				}
			}
		}
		if edges == 0 {
			t.Fatalf("%s: no edges", name)
		}
		t.Logf("%s: %d forward edges × %d cuts, %d evaluations in band", name, edges, len(cuts), inBand)
	}
}

// TestMergedAtMostEdgeCases covers the rows the decomposition never
// produces but the predicate must still answer like the reference: random
// and saturated rows with cuts inside the band, all-empty and all-saturated
// rows, zero-width rows, and cuts below 1, zero, negative, infinite or NaN.
func TestMergedAtMostEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 46))
	var est MaxEstimator[int8]
	odd := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, -3, 1e-13, 0.5, 0.97, 1, 1e12, 1e25}
	for trial := 0; trial < 300; trial++ {
		width := 1 + rng.IntN(200)
		a, b := randMaxRow(rng, width), randMaxRow(rng, width)
		if trial%3 == 0 {
			a = randMaxRowSaturated(rng, width)
		}
		checkBandCuts(t, &est, a, b)
		for _, d := range odd {
			checkDecision(t, &est, a, b, d)
		}
	}
	for _, v := range []int8{Empty, 0, maxTrackedY, MaxCell8} {
		row := make([]int8, 40)
		for i := range row {
			row[i] = v
		}
		checkBandCuts(t, &est, row, row)
		for _, d := range odd {
			checkDecision(t, &est, row, row, d)
		}
	}
	for _, d := range odd {
		checkDecision(t, &est, nil, nil, d)
	}
}

// TestMergedAtMostLengthMismatch: the predicate must refuse rows of
// different widths loudly rather than silently truncating.
func TestMergedAtMostLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MergedAtMost accepted rows of different lengths")
		}
	}()
	var est MaxEstimator[int8]
	est.MergedAtMost(make([]int8, 4), make([]int8, 5), NewCut(10))
}

// FuzzMergedAtMost fuzzes the decision differential: the bytes split into
// two int8 rows (canonicalized into the kernel's domain [Empty, MaxCell8],
// at the alignment mode selects), and MergedAtMost must agree with
// EstimateMerged <= cut at the arbitrary cut cutBits encodes and at cuts
// placed in and around the guard band of the merged statistic.
func FuzzMergedAtMost(f *testing.F) {
	f.Add([]byte{10, 11, 12, 13, 14, 15, 9, 8}, uint64(0x4024000000000000), uint8(0))
	f.Add(make([]byte, 160), math.Float64bits(1.5), uint8(3))
	empty := make([]byte, 128)
	for i := range empty {
		empty[i] = 0xff // Empty
	}
	f.Add(empty, math.Float64bits(40), uint8(1))
	saturated := make([]byte, 96)
	for i := range saturated {
		saturated[i] = 0x7f // MaxCell8
	}
	f.Add(saturated, math.Float64bits(1e19), uint8(5))
	organic := mergedRow[int8](MaxKernel{}, 1024, 300, 47)
	raw := make([]byte, len(organic))
	for i, v := range organic {
		raw[i] = byte(v)
	}
	f.Add(raw, math.Float64bits(330), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, cutBits uint64, mode uint8) {
		w := len(data) / 2
		off := int(mode % 8)
		raw := make([]int8, 2*w)
		for i := range raw {
			raw[i] = int8(data[i])
		}
		raw = canonMax8(raw)
		a := make([]int8, w+8)[off : off+w]
		b := make([]int8, w+8)[off : off+w]
		copy(a, raw[:w])
		copy(b, raw[w:])
		var est MaxEstimator[int8]
		checkDecision(t, &est, a, b, math.Float64frombits(cutBits))
		checkBandCuts(t, &est, a, b)
	})
}
