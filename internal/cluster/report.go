package cluster

import (
	"fmt"
	"strings"
	"time"

	"hmmer3gpu/internal/obs"
)

// WorkerStats is one worker's share of a sharded run.
type WorkerStats struct {
	Name string
	// Batches/Residues/Busy cover batches this worker completed and
	// that won the merge token.
	Batches  int
	Residues int64
	Busy     time.Duration
	// Requeues counts batches reclaimed from this worker (session loss
	// or blown deadline) and re-executed elsewhere.
	Requeues int
	// Failures counts remote execution errors this worker reported.
	Failures int
	// ConnectFailures counts failed dials/handshakes; Disconnects
	// counts sessions that ended with a cause; Reconnects counts
	// successful connects after the first.
	ConnectFailures int
	Disconnects     int
	Reconnects      int
	// Deadlines counts assignments reclaimed on the per-batch deadline.
	Deadlines   int
	Quarantined bool
	// Unfenced marks a worker that never acked a takeover run's epoch
	// (Epoch > 1), so it would still ack the old primary.
	Unfenced  bool
	LastError string
}

// Report is the outcome of one Coordinator.Run.
type Report struct {
	Wall time.Duration
	// Batches/Seqs/Residues total the submitted work.
	Batches  int
	Seqs     int
	Residues int64
	// Drained reports a graceful early stop (Drain channel closed).
	Drained bool
	// Epoch is the coordinator fencing epoch the run executed under.
	Epoch uint64
	// Failovers counts hot-standby takeovers this run performed (1 for
	// a standby run that assumed a dead primary's journal and workers,
	// 0 for a plain run).
	Failovers int
	// StandbyTailed counts the records a standby run read from the
	// primary's journal when it took over.
	StandbyTailed int
	// Degraded reports that the run lost every worker and finished on
	// the coordinator's local executor.
	Degraded bool
	// LocalBatches counts batches the degraded local path committed.
	LocalBatches int
	// Requeues counts batches reclaimed from lost or stalled workers
	// and re-executed — each reclaim is exactly one requeue, so under
	// the commit-token discipline this equals the number of
	// re-executions caused by worker loss.
	Requeues int
	// FencedResults counts late worker replies dropped by the
	// (seq, epoch) fence — results from presumed-dead workers or blown
	// deadlines that were never allowed near the merge path.
	FencedResults int
	// FencedCommits counts deliveries that lost the merge-token race
	// (the token backstop behind the fence).
	FencedCommits int
	// RemoteFailures counts execution errors reported by workers.
	RemoteFailures int
	// Deadlines / HeartbeatTimeouts / ConnectFailures / Reconnects /
	// Quarantines total the corresponding per-worker events.
	Deadlines         int
	HeartbeatTimeouts int
	ConnectFailures   int
	Reconnects        int
	Quarantines       int
	// Unfenced counts the workers marked WorkerStats.Unfenced.
	Unfenced int
	// Workers is the per-worker breakdown, indexed by roster position.
	Workers []WorkerStats
}

// Faulted reports whether the run saw any fault activity.
func (r *Report) Faulted() bool {
	return r.Requeues > 0 || r.FencedResults > 0 || r.FencedCommits > 0 ||
		r.RemoteFailures > 0 || r.Deadlines > 0 || r.HeartbeatTimeouts > 0 ||
		r.ConnectFailures > 0 || r.Reconnects > 0 || r.Quarantines > 0 || r.Degraded
}

// String renders totals, one line per worker, and a fault summary when
// the run saw faults.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d batches, %d seqs, %d residues across %d workers in %v",
		r.Batches, r.Seqs, r.Residues, len(r.Workers), r.Wall)
	if r.Drained {
		b.WriteString(" (drained)")
	}
	if r.Degraded {
		fmt.Fprintf(&b, " (degraded: %d batches finished locally)", r.LocalBatches)
	}
	for _, w := range r.Workers {
		fmt.Fprintf(&b, "\n  worker %s: %d batches, %d residues (%s), busy %v",
			w.Name, w.Batches, w.Residues,
			obs.Pct(float64(w.Residues), float64(r.Residues)), w.Busy)
		if w.Quarantined {
			b.WriteString(" [quarantined]")
		}
		if w.Unfenced {
			b.WriteString(" [unfenced]")
		}
		if w.LastError != "" {
			fmt.Fprintf(&b, " (last error: %s)", w.LastError)
		}
	}
	if r.Faulted() {
		fmt.Fprintf(&b, "\n  faults: %d requeues, %d fenced results, %d fenced commits, %d remote failures, %d deadlines, %d heartbeat timeouts, %d connect failures, %d reconnects, %d quarantines",
			r.Requeues, r.FencedResults, r.FencedCommits, r.RemoteFailures,
			r.Deadlines, r.HeartbeatTimeouts, r.ConnectFailures, r.Reconnects, r.Quarantines)
	}
	return b.String()
}

// Record merges the run into reg under the cluster subsystem. Every
// counter is emitted on every run — clean runs export explicit zeros —
// and the per-worker quarantined gauge is emitted for every worker in
// the roster, so scrapes always see the same series set.
func (r *Report) Record(reg *obs.Registry) {
	if !reg.Enabled() {
		return
	}
	reg.AddInt("hmmer_cluster_batches_total", int64(r.Batches))
	reg.AddInt("hmmer_cluster_seqs_total", int64(r.Seqs))
	reg.AddInt("hmmer_cluster_residues_total", r.Residues)
	reg.Set("hmmer_cluster_wall_seconds", r.Wall.Seconds())
	reg.AddInt("hmmer_cluster_workers", int64(len(r.Workers)))
	reg.Set("hmmer_cluster_degraded", obs.Flag(r.Degraded))
	reg.AddInt("hmmer_cluster_local_batches_total", int64(r.LocalBatches))
	reg.AddInt("hmmer_cluster_requeues_total", int64(r.Requeues))
	reg.AddInt("hmmer_cluster_fenced_results_total", int64(r.FencedResults))
	reg.AddInt("hmmer_cluster_fenced_commits_total", int64(r.FencedCommits))
	reg.AddInt("hmmer_cluster_remote_failures_total", int64(r.RemoteFailures))
	reg.AddInt("hmmer_cluster_deadlines_total", int64(r.Deadlines))
	reg.AddInt("hmmer_cluster_heartbeat_timeouts_total", int64(r.HeartbeatTimeouts))
	reg.AddInt("hmmer_cluster_connect_failures_total", int64(r.ConnectFailures))
	reg.AddInt("hmmer_cluster_reconnects_total", int64(r.Reconnects))
	reg.AddInt("hmmer_cluster_quarantines_total", int64(r.Quarantines))
	reg.AddInt("hmmer_cluster_failovers_total", int64(r.Failovers))
	reg.AddInt("hmmer_cluster_standby_tailed_total", int64(r.StandbyTailed))
	reg.Set("hmmer_cluster_epoch", float64(r.Epoch))
	reg.AddInt("hmmer_cluster_unfenced_workers", int64(r.Unfenced))
	for _, w := range r.Workers {
		reg.Add(obs.WithLabel("hmmer_cluster_worker_busy_seconds_total", "worker", w.Name), w.Busy.Seconds())
		reg.AddInt(obs.WithLabel("hmmer_cluster_worker_batches_total", "worker", w.Name), int64(w.Batches))
		reg.AddInt(obs.WithLabel("hmmer_cluster_worker_residues_total", "worker", w.Name), w.Residues)
		reg.AddInt(obs.WithLabel("hmmer_cluster_worker_requeues_total", "worker", w.Name), int64(w.Requeues))
		reg.Set(obs.WithLabel("hmmer_cluster_worker_quarantined", "worker", w.Name), obs.Flag(w.Quarantined))
	}
	reg.Help("hmmer_cluster_requeues_total",
		"batches reclaimed from lost or stalled workers and re-executed exactly once")
	reg.Help("hmmer_cluster_fenced_results_total",
		"late worker replies dropped by the (seq, epoch) fence, never merged")
	reg.Help("hmmer_cluster_fenced_commits_total",
		"deliveries that lost the one-shot merge-token race")
	reg.Help("hmmer_cluster_degraded",
		"1 when the run lost every worker and finished on the local executor")
	reg.Help("hmmer_cluster_worker_quarantined",
		"1 when the worker was quarantined by the circuit breaker during the run")
	reg.Help("hmmer_cluster_failovers_total",
		"hot-standby takeovers performed by this run (journal resumed, workers redialled at a higher epoch)")
	reg.Help("hmmer_cluster_standby_tailed_total",
		"records a standby read from the primary's journal when it took over")
	reg.Help("hmmer_cluster_unfenced_workers",
		"workers that never acked this takeover run's epoch and could still ack the old primary")
	reg.Help("hmmer_cluster_epoch",
		"the coordinator fencing epoch this run executed under")
}
