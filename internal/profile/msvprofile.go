package profile

import (
	"math"

	"hmmer3gpu/internal/alphabet"
)

// MSV filter quantisation. Scores are held in unsigned bytes at
// MSVScale units per nat (1/3-bit resolution, as in HMMER3), offset by
// MSVBase, with emission scores stored as biased costs so that the
// inner loop is max / saturating-add(bias) / saturating-sub(cost) —
// exactly the shape of the paper's Algorithm 1, line 15:
//
//	temp = max(mmx, xB) + bias - em(res, p)
const (
	// MSVScale is the number of byte units per nat: 3 units per bit.
	MSVScale = 3.0 / math.Ln2
	// MSVBase is the byte offset representing score 0 for the special
	// states (HMMER3 uses the same value).
	MSVBase = 190
	// msvNatCorrection restores the N/C/J self-loop contribution the
	// filter treats as free; lim_{L->inf} L*ln(L/(L+3)) = -3 nats.
	msvNatCorrection = 3.0
)

// MSVProfile is the 8-bit quantised profile for the MSV filter.
type MSVProfile struct {
	Name string
	M    int

	// MatCost[r][k] is the biased emission cost byte for residue code r
	// at node k: Bias - round(MSVScale * msc), saturated to [0,255].
	// Row index covers all digital codes; gap-like codes carry the
	// maximal cost.
	MatCost [][]uint8

	// Bias is the emission bias: the maximum quantised emission score,
	// so that biased costs are always non-negative.
	Bias uint8
	// TBM is the byte cost of the uniform local entry B->M_k.
	TBM uint8
	// TEC is the byte cost of E->J / E->C (ln 2 in multihit mode).
	TEC uint8
	// TJB is the byte cost of the N->B / J->B move; depends on target
	// length, set by SetLength.
	TJB uint8
	// L is the configured target length.
	L int
	// TMoveNats keeps the exact move score for the final conversion.
	TMoveNats float64
}

// NewMSVProfile quantises a configured search profile for the 8-bit
// MSV filter.
func NewMSVProfile(p *Profile) *MSVProfile {
	mp := &MSVProfile{Name: p.Name, M: p.M}

	// First pass: find the maximum emission unit to set the bias.
	maxUnit := 0
	for r := 0; r < p.Abc.Size(); r++ {
		for k := 1; k <= p.M; k++ {
			if u := msvUnits(p.MSC[r][k]); u > maxUnit {
				maxUnit = u
			}
		}
	}
	if maxUnit > 255 {
		maxUnit = 255
	}
	mp.Bias = uint8(maxUnit)

	mp.MatCost = make([][]uint8, p.Abc.SizeAll())
	for r := range mp.MatCost {
		row := make([]uint8, p.M+1)
		row[0] = 255
		for k := 1; k <= p.M; k++ {
			row[k] = biasedCost(mp.Bias, p.MSC[r][k])
		}
		mp.MatCost[r] = row
	}

	mp.TBM = costUnits(p.TBM)
	mp.TEC = costUnits(p.TEC)
	if p.L > 0 {
		mp.SetLength(p.L)
	}
	return mp
}

// SetLength configures the length-dependent move cost.
func (mp *MSVProfile) SetLength(L int) {
	mp.L = L
	fl := float64(L)
	mp.TMoveNats = math.Log(3 / (fl + 3))
	mp.TJB = costUnits(mp.TMoveNats)
}

// ScoreToNats converts a final filter xJ byte back to a natural-log
// score, including the move cost and the loop correction.
func (mp *MSVProfile) ScoreToNats(xJ uint8) float64 {
	return (float64(xJ)-MSVBase)/MSVScale + mp.TMoveNats - msvNatCorrection
}

// OverflowThreshold is the xE value at or above which the row maximum
// may have saturated, in which case the filter must report +inf (the
// sequence unconditionally passes to the next stage).
func (mp *MSVProfile) OverflowThreshold() uint8 {
	return 255 - mp.Bias
}

// Cost returns the biased emission cost for residue r at node k,
// tolerating the packing sentinel and out-of-range codes (max cost).
func (mp *MSVProfile) Cost(r byte, k int) uint8 {
	if int(r) >= len(mp.MatCost) || k < 1 || k > mp.M {
		return 255
	}
	return mp.MatCost[r][k]
}

// msvUnits quantises a nat score to signed byte units.
func msvUnits(sc float64) int {
	if math.IsInf(sc, -1) {
		return math.MinInt32 / 2
	}
	return int(math.Round(sc * MSVScale))
}

// biasedCost converts a nat emission score to the biased cost byte.
func biasedCost(bias uint8, sc float64) uint8 {
	u := msvUnits(sc)
	c := int(bias) - u
	if c < 0 {
		c = 0
	}
	if c > 255 {
		c = 255
	}
	return uint8(c)
}

// costUnits converts a non-positive nat score to a non-negative byte
// cost (rounded).
func costUnits(sc float64) uint8 {
	c := int(math.Round(-sc * MSVScale))
	if c < 0 {
		c = 0
	}
	if c > 255 {
		c = 255
	}
	return uint8(c)
}

// StripedCost returns residue code r's emission cost in lane l of
// vector q of the Farrar striping for a vector engine with width lanes:
// Q = ceil(M/width) vectors per residue, where vector q lane l holds
// node q + l*Q + 1 (or max cost for padding past M).
func (mp *MSVProfile) StripedCost(r, q, l, width int) uint8 {
	if k := q + l*StripedSegments(mp.M, width) + 1; k <= mp.M {
		return mp.MatCost[r][k]
	}
	return 255
}

// StripedSegments returns Q, the number of width-lane vectors per DP
// row in the striped layout.
func StripedSegments(m, width int) int {
	q := (m + width - 1) / width
	if q < 1 {
		q = 1
	}
	return q
}

// PackTerminated packs a digital sequence and guarantees at least one
// trailing PackSentinel slot, which the warp kernels use as their
// loop-termination flag (paper Figure 6).
func PackTerminated(dsq []byte) []uint32 {
	words := alphabet.Pack(dsq)
	if len(dsq)%alphabet.ResiduesPerWord == 0 {
		sentinelWord := uint32(0)
		for s := 0; s < alphabet.ResiduesPerWord; s++ {
			sentinelWord |= uint32(alphabet.PackSentinel) << (5 * s)
		}
		words = append(words, sentinelWord)
	}
	return words
}
