//go:build !amd64

package satmath

func msvRow(dst, src, cost []uint64, xB, bias uint64) uint64 {
	return msvRowGeneric(dst, src, cost, xB, bias)
}

func msvFilter(prev, cur, cost []uint64, dsq []byte, p MSVParams) (uint8, bool, int) {
	return msvFilterGeneric(prev, cur, cost, dsq, p)
}

func vitMIRow(r *VitMI, xB uint64) uint64 { return vitMIRowGeneric(r, xB) }

func addRow(dst, a, b []uint64) { addRowGeneric(dst, a, b) }

func ddRound(d, src, w []uint64) bool { return ddRoundGeneric(d, src, w) }

func packLanes(dst []uint64, src []byte) { packLanesGeneric(dst, src) }

func unpackLanes(dst []byte, src []uint64) { unpackLanesGeneric(dst, src) }
