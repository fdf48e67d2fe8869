package simt

import (
	"reflect"
	"regexp"
	"strconv"
	"strings"
)

// KernelStats aggregates the instruction and memory traffic counters
// of one kernel launch. All counts are warp-level (one SIMT
// instruction issued for 32 lanes counts once, plus replays).
type KernelStats struct {
	// WarpsExecuted is the number of warp work-items that ran.
	WarpsExecuted int64
	// ALUOps counts arithmetic/logic warp instructions.
	ALUOps int64
	// SharedLoads and SharedStores count shared-memory warp accesses.
	SharedLoads  int64
	SharedStores int64
	// BankConflictReplays counts the excess cycles spent replaying
	// conflicting shared-memory accesses. Every warp access is a span or
	// a broadcast, neither of which conflicts, so no operation adds to
	// it: it reads 0 in every launch.
	BankConflictReplays int64
	// GlobalLoadTransactions and GlobalStoreTransactions count 128-byte
	// memory transactions after coalescing.
	GlobalLoadTransactions  int64
	GlobalStoreTransactions int64
	// GlobalBytes is the total global memory traffic in bytes.
	GlobalBytes int64
	// CachedLoadTransactions/CachedStoreTransactions and CachedBytes
	// meter accesses whose working set lives in L2 (reused model
	// parameters, spilled DP rows); most of this traffic never reaches
	// DRAM.
	CachedLoadTransactions  int64
	CachedStoreTransactions int64
	CachedBytes             int64
	// GlobalRequestedBytes is the bytes the active lanes actually asked
	// for across all global accesses (cached included). Dividing by the
	// 128-byte-granular traffic actually moved gives nvprof's
	// gld_efficiency-style coalescing efficiency.
	GlobalRequestedBytes int64
	// ShuffleOps counts warp-shuffle instructions (Kepler path).
	ShuffleOps int64
	// VoteOps counts warp-vote instructions (__all / __any).
	VoteOps int64
	// Syncs counts __syncthreads barriers executed per warp.
	Syncs int64
	// SyncStallCycles models the issue cycles lost at barriers
	// (warps idle waiting for the slowest warp in the block).
	SyncStallCycles int64
	// SharedRaces counts detected cross-warp shared-memory conflicts
	// occurring between barriers (a correctness hazard, not a cost).
	SharedRaces int64
	// ActiveLaneSlots / TotalLaneSlots measure SIMT lane utilisation
	// over memory operations: ragged model sizes leave lanes idle in a
	// row's final 32-position chunk (e.g. M=33 uses 1 of 32 lanes
	// there), a divergence cost the occupancy numbers do not show.
	ActiveLaneSlots int64
	TotalLaneSlots  int64
	// IssueCycles is the summed per-warp issue-cycle estimate.
	IssueCycles int64
}

// Add accumulates other into s.
func (s *KernelStats) Add(other *KernelStats) {
	s.WarpsExecuted += other.WarpsExecuted
	s.ALUOps += other.ALUOps
	s.SharedLoads += other.SharedLoads
	s.SharedStores += other.SharedStores
	s.BankConflictReplays += other.BankConflictReplays
	s.GlobalLoadTransactions += other.GlobalLoadTransactions
	s.GlobalStoreTransactions += other.GlobalStoreTransactions
	s.GlobalBytes += other.GlobalBytes
	s.CachedLoadTransactions += other.CachedLoadTransactions
	s.CachedStoreTransactions += other.CachedStoreTransactions
	s.CachedBytes += other.CachedBytes
	s.GlobalRequestedBytes += other.GlobalRequestedBytes
	s.ShuffleOps += other.ShuffleOps
	s.VoteOps += other.VoteOps
	s.Syncs += other.Syncs
	s.SyncStallCycles += other.SyncStallCycles
	s.SharedRaces += other.SharedRaces
	s.ActiveLaneSlots += other.ActiveLaneSlots
	s.TotalLaneSlots += other.TotalLaneSlots
	s.IssueCycles += other.IssueCycles
}

// LaneUtilization returns the fraction of SIMT lane slots doing real
// work across memory operations (1.0 = perfectly full warps).
func (s *KernelStats) LaneUtilization() float64 {
	if s.TotalLaneSlots == 0 {
		return 1
	}
	return float64(s.ActiveLaneSlots) / float64(s.TotalLaneSlots)
}

// String renders the counters for reports as name=value pairs in
// declaration order.
func (s *KernelStats) String() string {
	var fields []string
	s.EachCounter(func(name string, v int64) {
		fields = append(fields, name+"="+strconv.FormatInt(v, 10))
	})
	return strings.Join(fields, " ")
}

// counterNames holds each KernelStats field's counter name (alu_ops,
// warps_executed) and counterSeries its metric series
// (hmmer_simt_alu_ops_total), both in declaration order and computed
// once.
var counterNames, counterSeries = func() (names, series []string) {
	t := reflect.TypeOf(KernelStats{})
	for i := 0; i < t.NumField(); i++ {
		name := snakeCase(t.Field(i).Name)
		names = append(names, name)
		series = append(series, "hmmer_simt_"+name+"_total")
	}
	return names, series
}()

// EachCounter calls f with each field's counter name and value, in
// declaration order. It is the one walk over the struct: String,
// Record and kernprof's counter table all go through it, so a field
// added to KernelStats reaches every one of them.
func (s *KernelStats) EachCounter(f func(name string, v int64)) {
	v := reflect.ValueOf(s).Elem()
	for i, name := range counterNames {
		f(name, v.Field(i).Int())
	}
}

// wordEdge matches where a Go field name (ALUOps, WarpsExecuted)
// opens a word: a lower→upper edge, or the last upper of an acronym run
// followed by a lower.
var wordEdge = regexp.MustCompile(`([a-z])([A-Z])|([A-Z])([A-Z][a-z])`)

// snakeCase converts a Go field name to its counter name (alu_ops,
// warps_executed).
func snakeCase(name string) string {
	return strings.ToLower(wordEdge.ReplaceAllString(name, "${1}${3}_${2}${4}"))
}
