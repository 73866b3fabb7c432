package sketch

import "math"

// maxTrackedY caps the value range of the estimator's histogram: geometric
// samples are at most 64 (one machine word of trailing zeros), so larger
// values — up to MaxCell8 for saturated narrow rows, or int16 extremes in
// hand-built or adversarially decoded wide rows — only occur outside organic
// fills, where clamping merely saturates the estimate (a documented finite
// value; see TestMaxEstimatorSaturated).
const maxTrackedY = 64

// logTail[y] = ln(1 − 2^−(y+1)), the log-CDF slope of the max-of-geometrics
// law: P[Y ≤ y] = (1 − 2^−(y+1))^d.
var logTail [maxTrackedY + 2]float64

// histWeight[k] = 2^−(k−1), the weight of histogram bucket k (value k−1)
// in the harmonic sum; harmonicMean reads its 2^−y as histWeight[y+1]. The
// Empty bucket weighs 2^1 and harmonicMean reads up to y = len(logTail)−1 =
// 65, so the table spans exponents −1…65: 67 entries. Powers of two are exact
// in float64, so every entry equals math.Exp2 of the same exponent bit for
// bit and the table changes no float downstream.
var histWeight [maxTrackedY + 3]float64

func init() {
	for y := range logTail {
		logTail[y] = math.Log1p(-math.Exp2(-float64(y + 1)))
	}
	for k := range histWeight {
		histWeight[k] = math.Ldexp(1, 1-k)
	}
}

// harmonicMean returns E[2^−Y] for Y the maximum of d geometric(1/2)
// samples; it is strictly decreasing in d (≈ c/d for large d).
func harmonicMean(d float64) float64 {
	var sum, prev float64
	for y := 0; y < len(logTail); y++ {
		arg := d * logTail[y] // ≤ 0
		var f float64
		switch {
		case arg < -40:
			f = 0
		case arg > -1e-12:
			f = 1
		default:
			f = math.Exp(arg)
		}
		sum += histWeight[y+1] * (f - prev)
		if f == 1 {
			// All remaining increments vanish.
			return sum
		}
		prev = f
	}
	return sum
}

// MaxEstimator inverts max-kernel rows with the harmonic-sum statistic
// S = (1/t)·Σ_i 2^−Y_i against the exact law E[2^−Y] of the maximum of d
// geometrics — the Flajolet–Martin/HyperLogLog extraction applied to the
// paper's sketch. It uses every trial (empirical error ≈ 1.04/√t, the rate
// fingerprint.TrialsFor is calibrated for) instead of the single-threshold
// count of the Lemma 5.2 proof, whose statistic is ~2× noisier with heavy
// tails at the decision margins the decomposition cares about; the lemma's
// literal estimator remains available as EstimateThreshold (and, behind the
// Estimator interface, as ThresholdEstimator).
//
// The estimate depends only on the cell values, never the storage width: the
// same values in an int8 or int16 row produce bit-identical floats.
//
// The struct is the reusable scratch: a value histogram filled in one pass
// over the row, from which both statistics derive. A MaxEstimator is owned
// by one goroutine; the zero value is ready to use.
type MaxEstimator[C Cell] struct {
	hist []int
}

// Name implements Estimator.
func (e *MaxEstimator[C]) Name() string { return "max/harmonic" }

// sizeHist sizes and zeroes the histogram for values up to maxY.
func (e *MaxEstimator[C]) sizeHist(maxY int) {
	size := maxY + 2
	if cap(e.hist) < size {
		e.hist = make([]int, size)
	} else {
		e.hist = e.hist[:size]
		for i := range e.hist {
			e.hist[i] = 0
		}
	}
}

// fill builds the value histogram (hist[k] counts maxima equal to k−1,
// values above maxTrackedY clamped) in one pass. The histogram is always
// sized to the full tracked range — zeroing its 66 fixed buckets is far
// cheaper than the extra max-scan over the row a minimal sizing would need,
// and zero-count buckets contribute nothing downstream.
func (e *MaxEstimator[C]) fill(s []C) {
	e.sizeHist(maxTrackedY)
	for _, y := range s {
		k := int(y)
		if k > maxTrackedY {
			k = maxTrackedY
		}
		e.hist[k+1]++
	}
}

// fillMerged is fill over the pointwise max of two equal-length rows,
// computed on the fly: the histogram it leaves behind is byte-identical to
// fill(max(a, b)) with no merged row ever materialized.
func (e *MaxEstimator[C]) fillMerged(a, b []C) {
	e.sizeHist(maxTrackedY)
	for i, y := range a {
		if b[i] > y {
			y = b[i]
		}
		k := int(y)
		if k > maxTrackedY {
			k = maxTrackedY
		}
		e.hist[k+1]++
	}
}

// harmonicStat returns S = (1/t)·Σ 2^−Y_i from the filled histogram. Index
// k holds value k−1; the Empty cell (value −1, weight 2) only arises in
// hand-built rows and pushes S up (d̂ down).
func (e *MaxEstimator[C]) harmonicStat(t int) float64 {
	var sum float64
	for k, c := range e.hist {
		if c > 0 {
			sum += float64(c) * histWeight[k]
		}
	}
	return sum / float64(t)
}

// invertHarmonic solves harmonicMean(d) = S by damped log-Newton
// (harmonicMean(d) ≈ c/d, so each step is a near-exact Newton step in ln d).
// converged reports that the loop stopped on |harmonicMean(d)/S − 1| < 1e-10
// rather than on the step cap or a vanishing harmonicMean; MergedAtMost's
// exactness argument rests on it.
func invertHarmonic(S float64) (d float64, converged bool) {
	d = 1 / S
	for i := 0; i < 48; i++ {
		g := harmonicMean(d)
		if g <= 0 {
			return d, false
		}
		ratio := g / S
		if math.Abs(ratio-1) < 1e-10 {
			return d, true
		}
		d *= ratio
	}
	return d, false
}

// estimateFromHist inverts the filled histogram: the harmonic statistic S,
// then invertHarmonic. It allocates nothing beyond the reused histogram.
func (e *MaxEstimator[C]) estimateFromHist(t int) float64 {
	if e.hist[0] == t {
		// No trial saw any element: the counted set is empty.
		return 0
	}
	d, _ := invertHarmonic(e.harmonicStat(t))
	return d
}

// Estimate computes the harmonic-sum statistic of the row and inverts it.
func (e *MaxEstimator[C]) Estimate(s []C) float64 {
	t := len(s)
	if t == 0 {
		return 0
	}
	e.fill(s)
	return e.estimateFromHist(t)
}

// EstimateMerged is the fused merge+estimate kernel: it returns
// Estimate(max(a, b)) — bit-identical floats — in one pass over the two
// rows, with no materialized merged row and no separate histogram fill. It
// is the reference MergedAtMost is tested against. It panics if the lengths
// differ.
func (e *MaxEstimator[C]) EstimateMerged(a, b []C) float64 {
	if len(a) != len(b) {
		panic("sketch: EstimateMerged length mismatch")
	}
	t := len(a)
	if t == 0 {
		return 0
	}
	e.fillMerged(a, b)
	return e.estimateFromHist(t)
}

// cutBand is the relative half-width of the guard band around S* inside
// which MergedAtMost falls back to the full inversion.
const cutBand = 1e-6

// Cut is a count threshold prepared for MergedAtMost: the cut d and the
// guard band around its harmonic statistic S* = harmonicMean(d), computed
// once so the per-edge predicate never inverts a statistic outside the band.
// The zero value is not a valid Cut; use NewCut.
type Cut struct {
	d      float64
	lo, hi float64
}

// NewCut prepares the threshold d. Cuts below 1 — which the decomposition,
// whose cut is (1+1.5ξ)Δ with Δ ≥ 1, never builds — get an infinite band, so
// MergedAtMost runs the full inversion for every row (see MergedAtMost for
// why the band needs d ≥ 1).
func NewCut(d float64) Cut {
	if !(d >= 1) {
		return Cut{d: d, lo: math.Inf(-1), hi: math.Inf(1)}
	}
	s := harmonicMean(d)
	return Cut{d: d, lo: s * (1 - cutBand), hi: s * (1 + cutBand)}
}

// MergedAtMost reports EstimateMerged(a, b) <= cut's d — the same answer for
// every input — while deciding on the harmonic statistic S of the merged row
// instead of its inverse: true when S > S*·(1+1e-6), false when
// S < S*·(1−1e-6), and only inside that band the full inversion. It is the
// per-edge hot path of the decomposition's buddy predicate (Lemma 5.8's
// test |N(u) ∪ N(v)| ≤ (1+1.5ξ)Δ). It panics if the lengths differ.
//
// Why the answers match: harmonicMean is non-increasing, so d̂ ≤ d exactly
// when harmonicMean(d̂) ≥ S* = harmonicMean(d). The inversion stops once
// |harmonicMean(d̂)/S − 1| < 1e-10, so outside the band harmonicMean(d̂) sits
// on the same side of S* as S, with four orders of magnitude to spare. The
// inversion converges for every statistic a row can produce up to
// S = 0.676 > harmonicMean(1) = 2/3 (S ≥ 2^−64, since cells clamp at
// maxTrackedY); above that it stops on its step cap at some d̂ < 1, which is
// still below every cut d ≥ 1 — the reason NewCut disables the band for
// smaller cuts. TestInvertHarmonicConverges pins both facts over a dense
// grid of S.
func (e *MaxEstimator[C]) MergedAtMost(a, b []C, cut Cut) bool {
	if len(a) != len(b) {
		panic("sketch: MergedAtMost length mismatch")
	}
	t := len(a)
	if t == 0 {
		return 0 <= cut.d
	}
	e.fillMerged(a, b)
	switch S := e.harmonicStat(t); {
	case S > cut.hi:
		return true
	case S < cut.lo:
		return false
	}
	return e.estimateFromHist(t) <= cut.d
}

// EstimateThreshold implements the literal Lemma 5.2 statistic: compute
// Z_k = |{i : Y_i < k}|, pick K* = min{k : Z_k ≥ (27/40)t}, and return
//
//	d̂ = ln(Z_K*/t) / ln(1 − 2^−K*).
//
// It returns 0 when most trials saw no element at all. Estimate supersedes
// it in production paths (same sketch, ~2× lower error); it is kept for
// reference and for experiments that measure the proof's own estimator.
func (e *MaxEstimator[C]) EstimateThreshold(s []C) float64 {
	t := len(s)
	if t == 0 {
		return 0
	}
	threshold := int(math.Ceil(27.0 / 40.0 * float64(t)))
	e.fill(s)
	z := 0
	for k := 0; k < len(e.hist); k++ {
		z += e.hist[k]
		if z < threshold {
			continue
		}
		if k == 0 {
			// Most trials empty: the counted set is (near) empty.
			return 0
		}
		zk := z
		if zk == t {
			// Degenerate small-d corner: all maxima below k. Clamp so the
			// logarithm stays informative.
			zk = t - 1
			if zk < 1 {
				return 0
			}
		}
		num := math.Log(float64(zk) / float64(t))
		den := math.Log(1 - math.Pow(2, -float64(k)))
		if den == 0 {
			return 0
		}
		return num / den
	}
	return 0
}

// ThresholdEstimator adapts EstimateThreshold to the Estimator interface so
// benchmarks and accuracy sweeps can treat the Lemma 5.2 statistic as one
// more variant next to the harmonic extraction and the KMV estimator.
type ThresholdEstimator[C Cell] struct {
	E MaxEstimator[C]
}

// Name implements Estimator.
func (e *ThresholdEstimator[C]) Name() string { return "max/threshold" }

// Estimate implements Estimator via the threshold statistic.
func (e *ThresholdEstimator[C]) Estimate(s []C) float64 { return e.E.EstimateThreshold(s) }
