// Package faults owns the one fault-injection grammar: Parse reads a
// spec naming device, worker, coordinator and journal faults and hands
// each layer its slice through that layer's own builder API.
package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"hmmer3gpu/internal/checkpoint"
	"hmmer3gpu/internal/cluster"
	"hmmer3gpu/internal/simt"
)

// Plan is a parsed fault spec, one field per layer; a layer the spec
// does not name is left empty (Devices) or nil.
type Plan struct {
	// Devices maps a device index to its injector (simt.System.ApplyFaults).
	Devices map[int]*simt.FaultInjector
	// Cluster carries the w<N> and coord clauses (pipeline.ClusterConfig.Inject).
	Cluster *cluster.FaultInjector
	// Crash is the journal clause (pipeline.CheckpointConfig.Crash).
	Crash *checkpoint.CrashPlan

	workers map[int]*cluster.FaultPlan
}

// Parse parses a fault spec of the form
//
//	<scope>:<fault>[,<fault>...][;<scope>:<fault>...]
//
//	dev<N>   p=P  at=N  hang=N  dead[=N]  flip@p=P  flip@shared=P  flip@launch=N
//	w<N>     refuse=N  kill=N  killp=P  torn=N  stall=N@D  dead=1  hello=bad
//	coord    kill=N
//	journal  crash=N[@before-append|@after-append|@after-sync]
//
// where P is a probability in [0,1], N an ordinal or count ≥ 0 and D a
// duration > 0; the simt, cluster and checkpoint injectors say what each
// fault does. Clauses for one scope merge. A dev index must lie in
// [0, devices) and a w index in [0, workers).
//
// Device N draws from seed+N and its bit flips from seed+N+0x5DC;
// worker N draws from the cluster injector's per-worker stream of
// seed. A spec and a seed fix the whole fault schedule.
func Parse(spec string, seed int64, devices, workers int) (*Plan, error) {
	p := &Plan{Devices: map[int]*simt.FaultInjector{}, workers: map[int]*cluster.FaultPlan{}}
	for _, clause := range strings.Split(spec, ";") {
		if clause = strings.TrimSpace(clause); clause == "" {
			continue
		}
		scope, list, hasScope := strings.Cut(clause, ":")
		scope = strings.TrimSpace(scope)
		kind := strings.TrimRight(scope, "0123456789")
		n, err := strconv.Atoi(scope[len(kind):])
		limit, indexed := map[string]int{"dev": devices, "w": workers}[kind]
		switch {
		case !hasScope:
			return nil, fmt.Errorf("faults: clause %q lacks a scope (want <scope>:<fault>)", clause)
		case indexed != (err == nil) || !indexed && kind != "coord" && kind != "journal":
			return nil, fmt.Errorf("faults: clause %q: bad scope %q (want dev<N>, w<N>, coord or journal)", clause, scope)
		case indexed && n >= limit:
			return nil, fmt.Errorf("faults: clause %q: %s is out of range (%d configured)", clause, scope, limit)
		}
		for _, f := range strings.Split(list, ",") {
			key, val, hasVal := strings.Cut(strings.TrimSpace(f), "=")
			if hasVal && val == "" || !p.set(kind, n, key, val, seed) {
				return nil, fmt.Errorf("faults: clause %q: bad fault %q", clause, f)
			}
		}
	}
	if len(p.Devices) == 0 && p.Cluster == nil && p.Crash == nil {
		return nil, fmt.Errorf("faults: spec %q names no faults", spec)
	}
	return p, nil
}

// set applies one fault to the scope kind<n>, creating the layer's
// injector on first use, and reports whether key=val is valid there.
// A rejected fault may leave a partial plan behind; Parse discards it.
func (p *Plan) set(kind string, n int, key, val string, seed int64) bool {
	if kind == "dev" && p.Devices[n] == nil {
		p.Devices[n] = simt.NewFaultInjector(seed + int64(n))
	}
	if (kind == "w" || kind == "coord") && p.Cluster == nil {
		p.Cluster = cluster.NewFaultInjector(seed)
	}
	if kind == "w" && p.workers[n] == nil {
		p.workers[n] = cluster.NewFaultPlan()
		p.Cluster.Plan(n, p.workers[n])
	}
	dev, wp := p.Devices[n], p.workers[n]
	// Flips draw from their own stream, so adding a flip clause never
	// perturbs an existing fail-stop schedule (and vice versa).
	if kind == "dev" && strings.HasPrefix(key, "flip@") && dev.Mem == nil {
		dev.Mem = simt.NewMemFaultInjector(seed + int64(n) + 0x5DC)
	}
	// ok starts as val's validity as a probability; the faults that
	// take a count or a word set it themselves.
	pr, err := strconv.ParseFloat(val, 64)
	ok := err == nil && pr >= 0 && pr <= 1
	c, isCount := count(val)
	switch kind + ":" + key {
	case "dev:p":
		dev.FailProb(pr)
	case "dev:flip@p":
		dev.Mem.FlipProb(pr)
	case "dev:flip@shared":
		dev.Mem.FlipShared(pr)
	case "w:killp":
		wp.KillProb = pr
	case "dev:at":
		dev.FailAt(int64(c), simt.FaultLaunch)
		ok = isCount
	case "dev:hang":
		dev.FailAt(int64(c), simt.FaultHang)
		ok = isCount
	case "dev:dead":
		dev.LoseFrom(int64(c))
		ok = isCount || val == ""
	case "dev:flip@launch":
		dev.Mem.FlipAt(int64(c))
		ok = isCount
	case "w:refuse":
		wp.RefuseConnects, ok = c, isCount
	case "w:kill":
		wp.KillAtBatch, ok = c, isCount
	case "w:torn":
		wp.TornAtBatch, ok = c, isCount
	case "w:stall":
		at, d, _ := strings.Cut(val, "@")
		dur, err := time.ParseDuration(d)
		wp.StallAtBatch, ok = count(at)
		wp.StallFor, ok = dur, ok && err == nil && dur > 0
	case "w:dead":
		wp.StayDead, ok = true, val == "1"
	case "w:hello":
		wp.CorruptHello, ok = true, val == "bad"
	case "coord:kill":
		p.Cluster.SetCoordinatorKill(c)
		ok = isCount
	case "journal:crash":
		at, _, _ := strings.Cut(val, "@")
		w, known := map[string]checkpoint.Window{"": checkpoint.WindowAfterSync,
			"@before-append": checkpoint.WindowBeforeAppend, "@after-append": checkpoint.WindowAfterAppend,
			"@after-sync": checkpoint.WindowAfterSync}[val[len(at):]]
		c, ok = count(at)
		p.Crash, ok = checkpoint.CrashAfter(c, w), ok && known
	default:
		return false
	}
	return ok
}

// count parses an ordinal or count: an integer ≥ 0.
func count(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, err == nil && n >= 0
}
