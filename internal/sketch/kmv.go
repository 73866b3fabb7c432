package sketch

import (
	"math"
	"sort"

	"clustercolor/internal/parwork"
)

// The k-min-values kernel: a row of width k holds the k smallest distinct
// 15-bit hashes seen, sorted ascending, padded with a sentinel that sorts
// last. Merging two rows keeps the k smallest distinct values of the union —
// a semilattice join like the max kernel — and the wire format is the
// delta/Elias-gamma encoding of the sorted values, which undercuts the max
// kernel's O(t)-trial deviation encoding when equal accuracy needs fewer
// minima than trials. It is opt-in (set as an Engine's kernel); the
// decomposition stays on the max kernel, whose semantics the paper's lemmas
// are stated for.

// kmvSentinel marks an unused cell; it is the largest int16, so it sorts
// after every real hash and a fresh row is all-sentinel.
const kmvSentinel = int16(math.MaxInt16)

// kmvRange is the hash range: values are uniform in [0, kmvRange), leaving
// kmvSentinel itself out of range.
const kmvRange = math.MaxInt16

// KMVKernel is the k-min-values kernel. The row width fixes k.
type KMVKernel struct{}

// Name implements Kernel.
func (KMVKernel) Name() string { return "kmv" }

// EmptyCell implements Kernel.
func (KMVKernel) EmptyCell() int16 { return kmvSentinel }

// Fill writes the party's singleton row: its one hash — uniform in
// [0, kmvRange) as a pure function of rowSeed — followed by sentinels.
func (KMVKernel) Fill(row []int16, rowSeed uint64) {
	if len(row) == 0 {
		return
	}
	row[0] = int16(parwork.RowSeed(rowSeed, 0) % kmvRange)
	for i := 1; i < len(row); i++ {
		row[i] = kmvSentinel
	}
}

// Merge implements Kernel via MergeKMV.
func (KMVKernel) Merge(dst, src []int16) { MergeKMV(dst, src) }

// EncodedBits implements Kernel: Elias-gamma of the occupied count, then the
// first value and the successive deltas (≥ 1, values are distinct) in
// Elias-gamma.
func (KMVKernel) EncodedBits(row []int16) int {
	v := kmvOccupied(row)
	bits := eliasGammaBits(uint64(v) + 1)
	if v > 0 {
		bits += eliasGammaBits(uint64(row[0]) + 1)
		for i := 1; i < v; i++ {
			bits += eliasGammaBits(uint64(row[i] - row[i-1]))
		}
	}
	return bits
}

// kmvOccupied returns the number of real (non-sentinel) values, by binary
// search over the sorted row.
func kmvOccupied(row []int16) int {
	return sort.Search(len(row), func(i int) bool { return row[i] == kmvSentinel })
}

// MergeKMV folds src into dst: dst becomes the k smallest distinct values of
// the union, sorted ascending. It panics if the lengths differ. The merge is
// in place — each src value is placed by binary search and an insertion
// shift — so it needs no temporary row; src is ascending, so the loop stops
// at the first value that cannot make the cut.
func MergeKMV(dst, src []int16) {
	k := len(dst)
	if k != len(src) {
		panic("sketch: MergeKMV length mismatch")
	}
	if k == 0 || &dst[0] == &src[0] {
		return // self-merge is a no-op by idempotence
	}
	for _, v := range src {
		if v == kmvSentinel {
			break
		}
		pos := sort.Search(k, func(i int) bool { return dst[i] >= v })
		if pos == k {
			// v exceeds every kept value; so does the rest of src.
			break
		}
		if dst[pos] == v {
			continue // already present
		}
		copy(dst[pos+1:], dst[pos:k-1])
		dst[pos] = v
	}
}

// KMVWidthFor returns the row width k giving relative error ≈ xi for the
// KMV estimator (error ≈ 1/√(k−2)), clamped to at least 8.
func KMVWidthFor(xi float64) int {
	if xi <= 0 || xi >= 1 {
		xi = 0.25
	}
	k := int(math.Ceil(1/(xi*xi))) + 2
	if k < 8 {
		k = 8
	}
	return k
}

// KMVEstimator inverts KMV rows: with the row saturated, the classic
// unbiased estimate is d̂ = (k−1)·R/m where m is the k-th smallest hash and
// R the hash range; short of saturation the row has seen every distinct
// hash, so the occupied count is the estimate. It is stateless.
type KMVEstimator struct{}

// Name implements Estimator.
func (KMVEstimator) Name() string { return "kmv" }

// Estimate implements Estimator.
func (KMVEstimator) Estimate(row []int16) float64 {
	k := len(row)
	v := kmvOccupied(row)
	if v < k {
		return float64(v)
	}
	m := row[k-1]
	if m <= 0 {
		// k distinct values cannot all be ≤ 0; only a width-1 row holding
		// hash 0 gets here, where "at least one element" is all we know.
		return float64(k)
	}
	return float64(k-1) * float64(kmvRange) / float64(m)
}
