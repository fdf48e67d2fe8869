package gpu

import (
	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/satmath"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
)

// Device residue remapping. The on-device alphabet has 24 rows: the 20
// canonical residues, the genuinely ambiguous B, J and Z, and the
// fully degenerate X. O (pyrrolysine) and U (selenocysteine) expand to
// exactly one canonical residue, so they are rewritten to K and C when
// the database is uploaded; gap-like codes map to an invalid slot that
// scores as impossible.
const (
	devB       = 20
	devJ       = 21
	devZ       = 22
	devX       = 23
	devInvalid = 24
)

// remapResidue converts a host digital code to the device alphabet.
func remapResidue(c byte) byte {
	switch {
	case c < 20:
		return c
	case c == 20: // B
		return devB
	case c == 21: // J
		return devJ
	case c == 22: // Z
		return devZ
	case c == 23: // O -> K
		return 8
	case c == 24: // U -> C
		return 1
	case c == 25: // X
		return devX
	default:
		return devInvalid
	}
}

// hostRowForDeviceResidue maps a device emission-table row back to the
// host digital code whose profile scores it carries.
func hostRowForDeviceResidue(r int) byte {
	switch r {
	case devB:
		return 20 // B
	case devJ:
		return 21 // J
	case devZ:
		return 22 // Z
	case devX:
		return 25 // X
	default:
		return byte(r)
	}
}

// DeviceDB is a sequence database uploaded to a device: residues
// remapped to the device alphabet and packed six-per-word with a
// guaranteed trailing sentinel (Figure 6), plus logical global-memory
// addresses for traffic metering.
type DeviceDB struct {
	// Packed[s] is sequence s in packed form.
	Packed [][]uint32
	// Lens[s] is the residue count of sequence s.
	Lens []int
	// Addr[s] is the logical global base address of Packed[s].
	Addr []int64
	// ScoreAddr is the base address of the per-sequence result array.
	ScoreAddr int64
	// TotalResidues is the summed residue count (total DP rows).
	TotalResidues int64
}

// UploadDB prepares db for the device.
func UploadDB(dev *simt.Device, db *seq.Database) *DeviceDB {
	d := &DeviceDB{
		Packed: make([][]uint32, db.NumSeqs()),
		Lens:   make([]int, db.NumSeqs()),
		Addr:   make([]int64, db.NumSeqs()),
	}
	remapped := make([]byte, 0, 1024)
	for i, s := range db.Seqs {
		remapped = remapped[:0]
		for _, c := range s.Residues {
			remapped = append(remapped, remapResidue(c))
		}
		words := profile.PackTerminated(remapped)
		d.Packed[i] = words
		d.Lens[i] = s.Len()
		d.Addr[i] = dev.AllocGlobal(int64(4 * len(words)))
		d.TotalResidues += int64(s.Len())
	}
	d.ScoreAddr = dev.AllocGlobal(int64(8 * db.NumSeqs()))
	return d
}

// DeviceMSVProfile is the MSV filter profile in device layout: biased
// emission cost rows over the 24-residue device alphabet.
type DeviceMSVProfile struct {
	MP *profile.MSVProfile
	// Cost[r][k] for device residue r, node k (row devInvalid is all
	// 255 so gap codes score as impossible).
	Cost [][]uint8
	// costWords[r] is Cost[r][1:], the costs of targets 1..M, packed
	// once into u8 register words (zero past M) for the kernel's
	// global-memory variant.
	costWords [][]uint64
	// TableAddr is the logical global address of the emission table.
	TableAddr int64
}

// UploadMSVProfile converts mp to device layout.
func UploadMSVProfile(dev *simt.Device, mp *profile.MSVProfile) *DeviceMSVProfile {
	d := &DeviceMSVProfile{MP: mp}
	d.Cost = make([][]uint8, devInvalid+1)
	for r := 0; r <= devInvalid; r++ {
		row := make([]uint8, mp.M+1)
		if r == devInvalid {
			for k := range row {
				row[k] = 255
			}
		} else {
			copy(row, mp.MatCost[hostRowForDeviceResidue(r)])
			row[0] = 255
		}
		d.Cost[r] = row
	}
	d.costWords = make([][]uint64, devInvalid+1)
	for r, row := range d.Cost {
		d.costWords[r] = make([]uint64, (mp.M+lanesPerWordU8-1)/lanesPerWordU8)
		satmath.PackLanes(d.costWords[r], row[1:])
	}
	d.TableAddr = dev.AllocGlobal(int64(deviceAlphaSize * (mp.M + 1)))
	return d
}

// DeviceVitProfile is the P7Viterbi filter profile in device layout:
// every table the kernel reads per chunk, packed once at upload into
// register words (four i16 lanes per uint64) aligned to the kernel's
// warp-wide chunks, so a chunk's parameters are one subslice and no
// launch or warp packs anything. Chunk c covers sources
// s = c*lanes + l and targets t = s+1; lanes whose target lies past
// the model hold NegInf16.
type DeviceVitProfile struct {
	VP *profile.VitProfile
	// Source-indexed transitions: lane l of chunk c holds T[s].
	tmm, tim, tdm, tmd, tdd []uint64
	// Target-indexed transitions and the match emissions over the
	// device alphabet (row devInvalid is all NegInf16 so gap codes
	// score as impossible): lane l of chunk c holds T[t].
	tmi, tii []uint64
	matUnit  [][]uint64
	// TableAddr is the logical global address of the emission table;
	// TransAddr of the transition block.
	TableAddr int64
	TransAddr int64
}

// UploadVitProfile converts vp to device layout.
func UploadVitProfile(dev *simt.Device, vp *profile.VitProfile) *DeviceVitProfile {
	lanes, m := dev.Spec.WarpSize, vp.M
	// pack lays arr[first+s] for s = 0..m-1 out in chunk-aligned
	// register words, NegInf16 in the last chunk's tail lanes (and
	// everywhere when arr is nil).
	pack := func(arr []int16, first int) []uint64 {
		chunks := (m + lanes - 1) / lanes
		reg := make([]uint64, chunks*lanes/lanesPerWordI16)
		for l := 0; l < chunks*lanes; l++ {
			v := satmath.NegInf16
			if arr != nil && l < m {
				v = arr[first+l]
			}
			setLaneI16(reg, l, v)
		}
		return reg
	}
	d := &DeviceVitProfile{
		VP:  vp,
		tmm: pack(vp.TMM, 0), tim: pack(vp.TIM, 0), tdm: pack(vp.TDM, 0),
		tmd: pack(vp.TMD, 0), tdd: pack(vp.TDD, 0),
		tmi: pack(vp.TMI, 1), tii: pack(vp.TII, 1),
	}
	d.matUnit = make([][]uint64, devInvalid+1)
	for r := 0; r < devInvalid; r++ {
		d.matUnit[r] = pack(vp.MatUnit[hostRowForDeviceResidue(r)], 1)
	}
	d.matUnit[devInvalid] = pack(nil, 1)
	d.TableAddr = dev.AllocGlobal(int64(2 * deviceAlphaSize * (vp.M + 1)))
	d.TransAddr = dev.AllocGlobal(int64(7 * 2 * (vp.M + 1)))
	return d
}

// packedWordAddr returns the logical address of packed word wi of a
// sequence based at addr.
func packedWordAddr(addr int64, wi int) int64 { return addr + int64(4*wi) }
