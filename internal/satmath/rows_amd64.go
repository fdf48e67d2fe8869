package satmath

// SSE2 row primitives (rows_amd64.s) and lane moves (lanes_amd64.s).
// SSE2 is part of the amd64 baseline, so they need no CPU feature
// check. Their callers in rows.go and swar.go have already checked the
// slice lengths: packLanes copies all of src (len(src) <= 8*len(dst))
// and zeroes the rest of dst, unpackLanes fills all of dst (len(dst) <=
// 8*len(src)).

//go:noescape
func msvRow(dst, src, cost []uint64, xB, bias uint64) (xE uint64)

//go:noescape
func msvFilter(prev, cur, cost []uint64, dsq []byte, p MSVParams) (xJ uint8, overflowed bool, at int)

//go:noescape
func vitMIRow(r *VitMI, xB uint64) (xE uint64)

//go:noescape
func addRow(dst, a, b []uint64)

//go:noescape
func ddRound(d, src, w []uint64) (changed bool)

//go:noescape
func packLanes(dst []uint64, src []byte)

//go:noescape
func unpackLanes(dst []byte, src []uint64)
