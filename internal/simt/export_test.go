package simt

// Test-only views of injector settings for the fault-spec tests in
// package simt_test, which parse through internal/faults (an importer
// of this package) and so cannot live inside it.

// FaultSettings returns f's transient-failure probability, its
// ordinal schedule and the ordinal it is lost from (-1: never).
func FaultSettings(f *FaultInjector) (p float64, at map[int64]FaultKind, lostFrom int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.p, f.at, f.lostFrom
}

// FlipSettings returns m's readback and shared-memory flip
// probabilities and its forced-burst launch ordinals.
func FlipSettings(m *MemFaultInjector) (readbackP, sharedP float64, atLaunch map[int64]bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.readbackP, m.sharedP, m.atLaunch
}
