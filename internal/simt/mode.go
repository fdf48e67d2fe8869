package simt

import "fmt"

// Mode selects how much microarchitectural accounting a device performs
// while executing kernels.
//
// ModeCycleAccurate (the zero value, so existing callers are
// unchanged) runs the full cost model: shared accesses, coalesced
// transaction counting, issue cycles, lane occupancy and sync stalls —
// everything the perf package needs to reproduce the paper's figures.
//
// ModeFast executes kernels functionally with accounting off:
// identical data movement, fault injection, race detection and
// cancellation points — so scores, tblout files, checkpoint journals
// and DMR verdicts are byte-identical to cycle-accurate runs — but no
// per-operation accounting. It is the mode of the correctness-only
// workloads (chaos tests, CI smokes, the cluster and service paths),
// which read no counter.
type Mode int

const (
	ModeCycleAccurate Mode = iota
	ModeFast
)

// String returns the CLI spelling of the mode.
func (m Mode) String() string {
	if m == ModeFast {
		return "fast"
	}
	return "cycles"
}

// ParseMode parses the CLI spelling of a simulator mode
// (the -sim flag of hmmsearch and hmmbench).
func ParseMode(s string) (Mode, error) {
	switch s {
	case "cycles", "cycle-accurate", "accurate":
		return ModeCycleAccurate, nil
	case "fast", "functional":
		return ModeFast, nil
	}
	return 0, fmt.Errorf("simt: unknown sim mode %q (want \"fast\" or \"cycles\")", s)
}
