package cluster

// PlanOf returns the plan fi holds for worker w (nil if none), for the
// fault-spec tests in package cluster_test.
func PlanOf(fi *FaultInjector, w int) *FaultPlan {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.plans[w]
}
