package gpu

import (
	"fmt"
	"time"

	"hmmer3gpu/internal/cpu"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
)

// MultiSearcher distributes a database search over the devices of a
// System — the paper's §IV-A multi-GPU configuration, where the
// database is partitioned across devices with no cross-device
// dependencies and scaling is near linear.
type MultiSearcher struct {
	Sys *simt.System
	Mem MemConfig
	// HostWorkers caps host-side parallelism per device launch.
	HostWorkers int
	// Trace, when non-nil, parents one shard span per device (and the
	// kernel span beneath it) on that device's track.
	Trace *obs.Span
	// Cancel, when non-nil, aborts every shard's in-flight launch once
	// closed; see Searcher.Cancel.
	Cancel <-chan struct{}
}

// MultiReport is the merged outcome of a multi-device search.
type MultiReport struct {
	// Results holds per-sequence scores in original database order.
	Results []cpu.FilterResult
	// PerDevice carries each device's report, indexed by device.
	PerDevice []*SearchReport
	// ShardResidues is each shard's residue count (the load-balance
	// picture).
	ShardResidues []int64
	// Util is each device's utilization (busy wall time, residues,
	// batches served); the static split serves one batch per device.
	Util []DeviceUtilization
}

// MSVSearch runs the MSV stage over all devices.
func (ms *MultiSearcher) MSVSearch(mp *profile.MSVProfile, db *seq.Database) (*MultiReport, error) {
	return ms.search(db, func(s *Searcher, ddb *DeviceDB) (*SearchReport, error) {
		return s.MSVSearch(UploadMSVProfile(s.Dev, mp), ddb)
	})
}

// ViterbiSearch runs the P7Viterbi stage over all devices.
func (ms *MultiSearcher) ViterbiSearch(vp *profile.VitProfile, db *seq.Database) (*MultiReport, error) {
	return ms.search(db, func(s *Searcher, ddb *DeviceDB) (*SearchReport, error) {
		return s.ViterbiSearch(UploadVitProfile(s.Dev, vp), ddb)
	})
}

// search is the shard loop both stages share: partition db over the
// devices, upload each shard to its device, run the stage there under a
// shard span, and merge the per-shard results back into database order.
// run uploads its stage's profile (after the shard, so the per-device
// upload order is database then profile) and launches the kernel.
func (ms *MultiSearcher) search(db *seq.Database,
	run func(s *Searcher, ddb *DeviceDB) (*SearchReport, error)) (*MultiReport, error) {

	shards := db.Partition(len(ms.Sys.Devices))
	out := &MultiReport{
		Results:       make([]cpu.FilterResult, 0, db.NumSeqs()),
		PerDevice:     make([]*SearchReport, len(shards)),
		ShardResidues: make([]int64, len(shards)),
		Util:          make([]DeviceUtilization, len(ms.Sys.Devices)),
	}
	_, err := ms.Sys.LaunchAll(func(i int, dev *simt.Device) (*simt.LaunchReport, error) {
		if i >= len(shards) {
			return &simt.LaunchReport{}, nil
		}
		start := time.Now()
		span := ms.Trace.ChildOn(dev.Track(), fmt.Sprintf("shard %d", i),
			obs.Int("seqs", int64(shards[i].NumSeqs())),
			obs.Int("residues", shards[i].TotalResidues()))
		defer span.End()
		ddb := UploadDB(dev, shards[i])
		s := &Searcher{Dev: dev, Mem: ms.Mem, HostWorkers: ms.HostWorkers, Trace: span, Cancel: ms.Cancel}
		rep, err := run(s, ddb)
		if err != nil {
			return nil, err
		}
		out.PerDevice[i] = rep
		out.ShardResidues[i] = ddb.TotalResidues
		out.Util[i] = DeviceUtilization{Busy: time.Since(start), Residues: ddb.TotalResidues, Batches: 1}
		return rep.Launch, nil
	})
	if err != nil {
		return nil, err
	}
	for _, rep := range out.PerDevice {
		if rep != nil {
			out.Results = append(out.Results, rep.Results...)
		}
	}
	return out, nil
}
