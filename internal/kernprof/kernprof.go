// Package kernprof is an nvprof-style kernel profiler for the
// simulated GPU: it implements simt.Profiler, turns the raw per-block
// counter deltas a Device delivers into per-launch records — achieved
// vs predicted occupancy, warp execution efficiency, bank-conflict
// replay rate, coalescing efficiency, stall attribution across
// barrier / memory / scheduler-wait — and renders them as a JSON
// artifact, metrics series, text reports and folded-stack flamegraphs
// (cmd/hmmprof). It is the data plane the autotuner (ROADMAP item 5)
// and the resident service (item 1) consume.
//
// Collection cost follows the repo's nil-cost-when-off discipline: a
// device without a Collector attached pays one comparison per block;
// a fast-mode device with one attached profiles only every Nth block
// (SamplePeriod), leaving all other blocks on the nil cost model.
package kernprof

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/simt"
)

// Schema identifies the profile artifact format; bump on any
// incompatible change so cmd/tracecheck can reject stale artifacts.
const Schema = "hmmer3gpu-kernprof/v1"

// Profile is the artifact written by -kprof: one record per kernel
// launch, in launch order.
type Profile struct {
	Schema   string         `json:"schema"`
	Launches []LaunchRecord `json:"launches"`
}

// OccupancyView is the resource-arithmetic occupancy prediction of
// simt.CalcOccupancy, embedded per launch.
type OccupancyView struct {
	BlocksPerSM int     `json:"blocks_per_sm"`
	WarpsPerSM  int     `json:"warps_per_sm"`
	Fraction    float64 `json:"fraction"`
	Limiter     string  `json:"limiter"`
}

// AchievedView is the occupancy the launch actually achieved, derived
// from the execution (block→SM placement and measured block cycles),
// not echoed from the calculator.
type AchievedView struct {
	// WarpsPerSM is the mean resident warps per active SM across the
	// launch's residency waves.
	WarpsPerSM float64 `json:"warps_per_sm"`
	// Fraction is WarpsPerSM / MaxWarpsPerSM — the figure to compare
	// against the predicted fraction. It dips below the prediction
	// when the grid does not fill every residency wave (tail effects).
	Fraction float64 `json:"fraction"`
	// ActiveFraction weights residency by measured block issue cycles
	// (slot-greedy schedule): it additionally drops when block
	// durations are ragged or warps idle, the number that exposes
	// under-filled grids that still "fit" perfectly.
	ActiveFraction float64 `json:"active_fraction"`
}

// StallView attributes the launch's cycles: compute issue, exposed
// memory latency (an estimate from the device's latency parameters,
// assuming no overlap), barrier stalls, and scheduler wait (resident
// warp-cycles idle in the slot/tail model).
type StallView struct {
	ComputeCycles       int64 `json:"compute_cycles"`
	MemoryCycles        int64 `json:"memory_cycles"`
	BarrierCycles       int64 `json:"barrier_cycles"`
	SchedulerWaitCycles int64 `json:"scheduler_wait_cycles"`
}

// DerivedView carries the headline efficiency ratios.
type DerivedView struct {
	// WarpExecEfficiency is active lane slots / total lane slots over
	// memory operations (nvprof warp_execution_efficiency).
	WarpExecEfficiency float64 `json:"warp_exec_efficiency"`
	// BankConflictReplayRate is replays per shared access.
	BankConflictReplayRate float64 `json:"bank_conflict_replay_rate"`
	// CoalescingEfficiency is requested bytes / 128-byte-granular
	// bytes moved across global+cached traffic (nvprof
	// gld_efficiency-style), capped at 1.
	CoalescingEfficiency float64 `json:"coalescing_efficiency"`
	// GlobalTransactions totals load+store+cached transactions.
	GlobalTransactions int64 `json:"global_transactions"`
	SharedAccesses     int64 `json:"shared_accesses"`
	ShuffleOps         int64 `json:"shuffle_ops"`
	VoteOps            int64 `json:"vote_ops"`
}

// SMRecord is the per-SM view of one launch under the simulator's
// round-robin block→SM placement.
type SMRecord struct {
	SM int `json:"sm"`
	// Blocks is every block placed on this SM (full grid, not just
	// sampled ones).
	Blocks int `json:"blocks"`
	// SampledBlocks and IssueCycles cover the profiled subset.
	SampledBlocks int   `json:"sampled_blocks"`
	IssueCycles   int64 `json:"issue_cycles"`
	// Makespan is the greedy-slot schedule length of the sampled
	// blocks in cycles (0 when nothing was sampled on this SM).
	Makespan int64 `json:"makespan"`
	// Occupancy is this SM's achieved residency fraction.
	Occupancy float64 `json:"occupancy"`
}

// LaunchRecord is one kernel launch's complete profile.
type LaunchRecord struct {
	Seq    int               `json:"seq"`
	Kernel string            `json:"kernel"`
	Device string            `json:"device"`
	Spec   string            `json:"spec"`
	Mode   string            `json:"mode"`
	Labels map[string]string `json:"labels,omitempty"`

	Blocks        int `json:"blocks"`
	WarpsPerBlock int `json:"warps_per_block"`
	SharedBytes   int `json:"shared_bytes_per_block"`
	RegsPerThread int `json:"regs_per_thread"`

	// SamplePeriod and SampledBlocks describe fast-mode thinning;
	// counters below are already scaled back to full-grid estimates.
	SamplePeriod  int `json:"sample_period"`
	SampledBlocks int `json:"sampled_blocks"`

	Predicted OccupancyView `json:"predicted"`
	Achieved  AchievedView  `json:"achieved"`

	// Counters maps snake-cased simt.KernelStats field names to
	// full-grid totals (sampled launches are scaled by the period;
	// warps_executed is exact from the geometry).
	Counters map[string]int64 `json:"counters"`

	Derived DerivedView `json:"derived"`
	Stalls  StallView   `json:"stalls"`
	PerSM   []SMRecord  `json:"per_sm,omitempty"`

	// BlockCycles is the histogram of per-block issue+stall cycles
	// over the sampled blocks (the latency distribution a roofline
	// hides); exported as a Chrome counter event and Prometheus
	// histogram via Record.
	BlockCycles *obs.Hist `json:"block_cycles,omitempty"`
}

// Collector implements simt.Profiler: attach one to a Device (or
// every device of a System) and it accumulates one LaunchRecord per
// successful launch. Safe for concurrent use by multiple devices.
type Collector struct {
	mu      sync.Mutex
	period  int
	labels  map[string]string
	records []LaunchRecord
}

// NewCollector returns a Collector with the default fast-mode sample
// period of 8 (one profiled block per 8).
func NewCollector() *Collector {
	return &Collector{period: 8}
}

// SamplePeriod implements simt.Profiler.
func (c *Collector) SamplePeriod() int {
	if c == nil {
		return 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.period
}

// SetSamplePeriod sets the fast-mode block-sampling stride (values
// < 1 mean profile every block).
func (c *Collector) SetSamplePeriod(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if n < 1 {
		n = 1
	}
	c.period = n
	c.mu.Unlock()
}

// SetLabels attaches a label set (copied) to every subsequently
// collected launch — callers tag launches with workload context the
// simulator cannot see (model size, database, memory config). Nil
// clears the labels.
func (c *Collector) SetLabels(kv map[string]string) {
	if c == nil {
		return
	}
	var cp map[string]string
	if len(kv) > 0 {
		cp = make(map[string]string, len(kv))
		for k, v := range kv {
			cp[k] = v
		}
	}
	c.mu.Lock()
	c.labels = cp
	c.mu.Unlock()
}

// SetLabel merges a single label into the current set, leaving the
// others in place — the pipeline tags "m"/"mem" per run while the
// caller's broader labels ("db") persist.
func (c *Collector) SetLabel(key, value string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.labels == nil {
		c.labels = make(map[string]string, 1)
	}
	c.labels[key] = value
	c.mu.Unlock()
}

// OnLaunch implements simt.Profiler.
func (c *Collector) OnLaunch(p *simt.LaunchProfile) {
	if c == nil || p == nil {
		return
	}
	c.mu.Lock()
	rec := buildRecord(p, c.labels)
	rec.Seq = len(c.records)
	c.records = append(c.records, rec)
	c.mu.Unlock()
}

// Len returns the number of launches collected so far.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.records)
}

// Profile snapshots the collected launches as an artifact.
func (c *Collector) Profile() *Profile {
	p := &Profile{Schema: Schema}
	if c == nil {
		return p
	}
	c.mu.Lock()
	p.Launches = append([]LaunchRecord(nil), c.records...)
	c.mu.Unlock()
	return p
}

// counterMap explodes a KernelStats into its counter map, scaling every
// counter by scale except warps_executed, which the launch geometry
// fixes exactly.
func counterMap(s *simt.KernelStats, scale int64, exactWarps int64) map[string]int64 {
	out := make(map[string]int64)
	s.EachCounter(func(name string, v int64) { out[name] = v * scale })
	out["warps_executed"] = exactWarps
	return out
}

// WriteJSON serializes the profile as indented JSON.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// WriteFile writes the profile artifact to path.
func (p *Profile) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("kernprof: writing %s: %w", path, err)
	}
	return f.Close()
}

// Read parses a profile artifact, validating it.
func Read(r io.Reader) (*Profile, error) {
	var p Profile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("kernprof: parsing profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// ReadFile reads and validates a profile artifact from path.
func ReadFile(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("kernprof: %s: %w", path, err)
	}
	return p, nil
}

// Validate checks the artifact invariants cmd/tracecheck enforces in
// CI: schema match, non-negative counters, occupancy fractions within
// [0, 1], and coherent geometry.
func (p *Profile) Validate() error {
	if p.Schema != Schema {
		return fmt.Errorf("kernprof: schema %q, want %q", p.Schema, Schema)
	}
	for i := range p.Launches {
		l := &p.Launches[i]
		where := fmt.Sprintf("launch %d (%s on %s)", i, l.Kernel, l.Device)
		if l.Blocks < 1 || l.WarpsPerBlock < 1 {
			return fmt.Errorf("kernprof: %s: bad geometry %dx%d", where, l.Blocks, l.WarpsPerBlock)
		}
		if l.SamplePeriod < 1 {
			return fmt.Errorf("kernprof: %s: sample period %d", where, l.SamplePeriod)
		}
		if l.Mode != "cycles" && l.Mode != "fast" {
			return fmt.Errorf("kernprof: %s: unknown mode %q", where, l.Mode)
		}
		for name, v := range l.Counters {
			if v < 0 {
				return fmt.Errorf("kernprof: %s: negative counter %s = %d", where, name, v)
			}
		}
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"predicted occupancy", l.Predicted.Fraction},
			{"achieved occupancy", l.Achieved.Fraction},
			{"achieved active occupancy", l.Achieved.ActiveFraction},
			{"warp exec efficiency", l.Derived.WarpExecEfficiency},
			{"coalescing efficiency", l.Derived.CoalescingEfficiency},
		} {
			if f.v < 0 || f.v > 1 {
				return fmt.Errorf("kernprof: %s: %s %g outside [0,1]", where, f.name, f.v)
			}
		}
		for _, sm := range l.PerSM {
			if sm.Occupancy < 0 || sm.Occupancy > 1 {
				return fmt.Errorf("kernprof: %s: SM %d occupancy %g outside [0,1]", where, sm.SM, sm.Occupancy)
			}
		}
	}
	return nil
}

// Merge appends other's launches (re-sequenced) into p.
func (p *Profile) Merge(other *Profile) {
	for _, l := range other.Launches {
		l.Seq = len(p.Launches)
		p.Launches = append(p.Launches, l)
	}
}

// sortedLabelKeys renders a label map deterministically.
func sortedLabelKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
