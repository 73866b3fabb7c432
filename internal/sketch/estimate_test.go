package sketch

import (
	"math"
	"math/rand/v2"
	"testing"

	"clustercolor/internal/parwork"
)

// mergedRow builds the sketch of d parties by folding d singleton fills of
// kernel k — exactly what a collect wave computes for a vertex with d
// admitted neighbors.
func mergedRow[C Cell](k Kernel[C], width, d int, seed uint64) []C {
	row := make([]C, width)
	cell := k.EmptyCell()
	for i := range row {
		row[i] = cell
	}
	tmp := make([]C, width)
	for p := 0; p < d; p++ {
		k.Fill(tmp, parwork.RowSeed(seed, p))
		k.Merge(row, tmp)
	}
	return row
}

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / want
}

// TestEstimatorAccuracy bounds the relative error of each estimator variant
// on rows built from known counts. The harmonic extraction is the production
// path (error ≈ 1.04/√t); the Lemma 5.2 threshold statistic is ~2× noisier;
// KMV runs at its own width with error ≈ 1/√(k−2).
func TestEstimatorAccuracy(t *testing.T) {
	const trials = 2048
	counts := []int{10, 100, 1000, 20000}
	var est MaxEstimator[int8]
	var thr ThresholdEstimator[int8]
	for i, d := range counts {
		row := mergedRow[int8](MaxKernel{}, trials, d, 0x9e3779b97f4a7c15+uint64(i))
		if e := relErr(est.Estimate(row), float64(d)); e > 0.10 {
			t.Errorf("max/harmonic d=%d: relative error %.3f > 0.10", d, e)
		}
		if e := relErr(thr.Estimate(row), float64(d)); e > 0.25 {
			t.Errorf("max/threshold d=%d: relative error %.3f > 0.25", d, e)
		}
	}
	kmvWidth := KMVWidthFor(0.1)
	var kmv KMVEstimator
	// KMV counts distinct 15-bit hashes, so its accuracy claim only covers
	// counts well below the hash range (at d ≈ R the birthday bound makes
	// distinct hashes saturate under d itself — a property of the kernel's
	// wire width, not estimator noise).
	for i, d := range []int{10, 100, 1000, 2000} {
		row := mergedRow[int16](KMVKernel{}, kmvWidth, d, 0xd1b54a32d192ed03+uint64(i))
		if e := relErr(kmv.Estimate(row), float64(d)); e > 0.35 {
			t.Errorf("kmv d=%d (k=%d): relative error %.3f > 0.35", d, kmvWidth, e)
		}
	}
}

// TestEstimatorWidthIndependence pins the cell-width contract's estimator
// half: the same values in an int8 and an int16 row must produce
// bit-identical estimates from both max-kernel statistics.
func TestEstimatorWidthIndependence(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	var e8 MaxEstimator[int8]
	var e16 MaxEstimator[int16]
	for trial := 0; trial < 100; trial++ {
		narrow := randMaxRow(rng, 1+rng.IntN(300))
		wide := make([]int16, len(narrow))
		for i, v := range narrow {
			wide[i] = int16(v)
		}
		if got, want := e8.Estimate(narrow), e16.Estimate(wide); got != want {
			t.Fatalf("harmonic estimate differs across widths: %v vs %v", got, want)
		}
		if got, want := e8.EstimateThreshold(narrow), e16.EstimateThreshold(wide); got != want {
			t.Fatalf("threshold estimate differs across widths: %v vs %v", got, want)
		}
	}
}

// TestEstimateMergedMatchesEstimate pins the fused merge+estimate kernel:
// EstimateMerged(a, b) must produce bit-identical floats to estimating the
// materialized pointwise max, without modifying either input row.
func TestEstimateMergedMatchesEstimate(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	var est MaxEstimator[int8]
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.IntN(300)
		a := randMaxRow(rng, width)
		b := randMaxRow(rng, width)
		if trial%3 == 0 {
			// Include saturated cells so the fused clamp path is covered too.
			a = randMaxRowSaturated(rng, width)
		}
		aCopy, bCopy := cloneRow(a), cloneRow(b)
		merged := cloneRow(a)
		MergeMax8Generic(merged, b)
		want := est.Estimate(merged)
		got := est.EstimateMerged(a, b)
		if got != want {
			t.Fatalf("EstimateMerged = %v, Estimate(merged) = %v", got, want)
		}
		if !rowsEqual(a, aCopy) || !rowsEqual(b, bCopy) {
			t.Fatal("EstimateMerged modified an input row")
		}
	}
	// Zero-width rows estimate to 0 through both paths.
	if got := est.EstimateMerged(nil, nil); got != 0 {
		t.Fatalf("EstimateMerged(nil, nil) = %v, want 0", got)
	}
}

// TestEstimateMergedLengthMismatch: the fused kernel must refuse rows of
// different widths loudly rather than silently truncating.
func TestEstimateMergedLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EstimateMerged accepted rows of different lengths")
		}
	}()
	var est MaxEstimator[int8]
	est.EstimateMerged(make([]int8, 4), make([]int8, 5))
}

// TestMaxEstimatorSaturated is the saturation guard's estimator half: rows
// clamped at the narrow-width ceiling MaxCell8 — unreachable through organic
// fills, whose values stay ≤ 64 — must still produce finite estimates from
// every statistic, through both the plain and the fused path.
func TestMaxEstimatorSaturated(t *testing.T) {
	var est MaxEstimator[int8]
	var thr ThresholdEstimator[int8]
	saturated := make([]int8, 256)
	for i := range saturated {
		saturated[i] = MaxCell8
	}
	organic := mergedRow[int8](MaxKernel{}, 256, 1000, 77)
	for _, row := range [][]int8{saturated, organic} {
		if got := est.Estimate(row); math.IsInf(got, 0) || math.IsNaN(got) || got <= 0 {
			t.Fatalf("harmonic estimate on saturated row not finite positive: %v", got)
		}
		if got := thr.Estimate(row); math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("threshold estimate on saturated row not finite: %v", got)
		}
		if got := est.EstimateMerged(row, saturated); math.IsInf(got, 0) || math.IsNaN(got) || got <= 0 {
			t.Fatalf("fused estimate on saturated row not finite positive: %v", got)
		}
	}
}

// TestEstimatorsOnEmptyRow: an all-identity row means no party was seen; all
// estimators must return 0.
func TestEstimatorsOnEmptyRow(t *testing.T) {
	maxEmpty := make([]int8, 128)
	for i := range maxEmpty {
		maxEmpty[i] = Empty
	}
	var est MaxEstimator[int8]
	if got := est.Estimate(maxEmpty); got != 0 {
		t.Errorf("max/harmonic on empty row: %v, want 0", got)
	}
	if got := est.EstimateMerged(maxEmpty, maxEmpty); got != 0 {
		t.Errorf("fused estimate on empty rows: %v, want 0", got)
	}
	var thr ThresholdEstimator[int8]
	if got := thr.Estimate(maxEmpty); got != 0 {
		t.Errorf("max/threshold on empty row: %v, want 0", got)
	}
	kmvEmpty := make([]int16, 16)
	for i := range kmvEmpty {
		kmvEmpty[i] = kmvSentinel
	}
	var kmv KMVEstimator
	if got := kmv.Estimate(kmvEmpty); got != 0 {
		t.Errorf("kmv on empty row: %v, want 0", got)
	}
}

// TestKMVSubSaturation: short of saturation the row holds every distinct
// hash, so the estimate is the (near-exact) occupancy count.
func TestKMVSubSaturation(t *testing.T) {
	const k = 128
	const d = 40
	row := mergedRow[int16](KMVKernel{}, k, d, 42)
	var kmv KMVEstimator
	got := kmv.Estimate(row)
	// Hash collisions among d parties can only lower the count, and with
	// d²/(2·32767) ≈ 0.02 expected collisions they essentially never do.
	if got < d-2 || got > d {
		t.Errorf("kmv sub-saturation estimate %v, want ≈ %d", got, d)
	}
}

// TestDeviationBitsExact pins EncodedBits to the materialized encoding:
// DeviationBits must equal the true bit position the writer ends at, with
// Encode padding only to the next byte.
func TestDeviationBitsExact(t *testing.T) {
	for i, d := range []int{1, 7, 50, 900} {
		row := mergedRow[int8](MaxKernel{}, 257, d, 0xabcdef+uint64(i))
		k, _ := DeviationBaseline(row, nil)
		bits := DeviationBits(row, k)
		buf := EncodeDeviation(row)
		if len(buf) != (bits+7)/8 {
			t.Errorf("d=%d: DeviationBits=%d but Encode produced %d bytes", d, bits, len(buf))
		}
		back, err := DecodeDeviation(buf)
		if err != nil {
			t.Fatalf("d=%d: decode: %v", d, err)
		}
		if len(back) != len(row) {
			t.Fatalf("d=%d: decode round-trip width %d, want %d", d, len(back), len(row))
		}
		for j := range row {
			if back[j] != int16(row[j]) {
				t.Errorf("d=%d: decode round-trip mismatch at cell %d", d, j)
				break
			}
		}
	}
}

// checkPricing asserts the one-pass MaxKernel.EncodedBits equals the
// three-pass reference DeviationBits(row, DeviationBaseline(row)) and, for
// rows in the kernel's value domain [Empty, MaxCell8], the exact bit length
// EncodeDeviation writes.
func checkPricing(t testing.TB, row []int8) {
	t.Helper()
	k, _ := DeviationBaseline(row, nil)
	want := DeviationBits(row, k)
	if got := (MaxKernel{}).EncodedBits(row); got != want {
		t.Fatalf("EncodedBits = %d, DeviationBits = %d (t=%d, row %v)", got, want, len(row), row)
	}
	for _, y := range row {
		if y < Empty {
			return
		}
	}
	if nbit := encodeDeviation(row).nbit; nbit != want {
		t.Fatalf("EncodedBits = %d, EncodeDeviation wrote %d bits (t=%d)", want, nbit, len(row))
	}
}

// TestMaxKernelEncodedBitsOnePass is the pricing conformance check: the
// one-pass histogram pricing must reproduce the reference on random,
// saturated, all-Empty and all-saturated rows, on full-range int8 rows, at
// every 8-byte alignment, and for t = 1 and even and odd t (the median's
// lower-tie rule).
func TestMaxKernelEncodedBitsOnePass(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 28))
	back := make([]int8, 320)
	for trial := 0; trial < 400; trial++ {
		off := trial % 8
		width := 1 + rng.IntN(300)
		if trial%50 == 0 {
			width = 1
		}
		var src []int8
		switch trial % 4 {
		case 0:
			src = randMaxRow(rng, width)
		case 1:
			src = randMaxRowSaturated(rng, width)
		case 2:
			src = make([]int8, width)
			for i := range src {
				src[i] = int8(rng.IntN(256) - 128)
			}
		case 3:
			// Two values only, so even widths hit the median tie.
			src = make([]int8, width)
			for i := range src {
				src[i] = int8(3 + 2*rng.IntN(2))
			}
		}
		row := back[off : off+width]
		copy(row, src)
		checkPricing(t, row)
	}
	for _, v := range []int8{Empty, 0, maxTrackedY, MaxCell8} {
		for _, width := range []int{1, 2, 63, 64, 257} {
			row := make([]int8, width)
			for i := range row {
				row[i] = v
			}
			checkPricing(t, row)
		}
	}
	checkPricing(t, nil)
}

// TestDeviationEncodingWidthIndependence pins the cell-width contract's wire
// half: the deviation encoding of the same values must be byte-identical —
// same baseline, same bit count, same bytes — from narrow and wide rows.
func TestDeviationEncodingWidthIndependence(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 26))
	for trial := 0; trial < 100; trial++ {
		narrow := randMaxRow(rng, 1+rng.IntN(300))
		wide := make([]int16, len(narrow))
		for i, v := range narrow {
			wide[i] = int16(v)
		}
		k8, _ := DeviationBaseline(narrow, nil)
		k16, _ := DeviationBaseline(wide, nil)
		if k8 != k16 {
			t.Fatalf("baseline differs across widths: %d vs %d", k8, k16)
		}
		if b8, b16 := DeviationBits(narrow, k8), DeviationBits(wide, k16); b8 != b16 {
			t.Fatalf("bit count differs across widths: %d vs %d", b8, b16)
		}
		e8, e16 := EncodeDeviation(narrow), EncodeDeviation(wide)
		if len(e8) != len(e16) {
			t.Fatalf("encoding length differs across widths: %d vs %d", len(e8), len(e16))
		}
		for i := range e8 {
			if e8[i] != e16[i] {
				t.Fatalf("encoding differs across widths at byte %d", i)
			}
		}
	}
}

// TestKernelEncodedBitsPositive: every kernel must charge at least one bit
// for any row, including the empty one (the wave charges max(bits, 1)).
func TestKernelEncodedBitsPositive(t *testing.T) {
	maxRow := make([]int8, 33)
	for i := range maxRow {
		maxRow[i] = MaxKernel{}.EmptyCell()
	}
	if b := (MaxKernel{}).EncodedBits(maxRow); b <= 0 {
		t.Errorf("max: EncodedBits(empty row) = %d, want > 0", b)
	}
	kmvRow := make([]int16, 33)
	for i := range kmvRow {
		kmvRow[i] = KMVKernel{}.EmptyCell()
	}
	if b := (KMVKernel{}).EncodedBits(kmvRow); b <= 0 {
		t.Errorf("kmv: EncodedBits(empty row) = %d, want > 0", b)
	}
}
