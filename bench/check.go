package main

import (
	"fmt"

	"repro/internal/security"
)

// checkSecurity checks the security concern's property on the farm's
// bindings: no plaintext send where the policy demands sealing and, on
// secured workloads, every envelope sent sealed — at least one per task.
func checkSecurity(secure bool, tasks uint64, a *security.Auditor) error {
	return securityVerdict(secure, tasks, a.Total(), a.Secured(), a.Leaks())
}

func securityVerdict(secure bool, tasks, sends, secured, leaks uint64) error {
	if leaks != 0 {
		return fmt.Errorf("security: %d plaintext sends on bindings the policy requires sealed", leaks)
	}
	if !secure {
		return nil
	}
	if sends < tasks {
		return fmt.Errorf("security: %d audited sends for %d tasks", sends, tasks)
	}
	if secured != sends {
		return fmt.Errorf("security: %d of %d sends sealed", secured, sends)
	}
	return nil
}

// checkRemote checks that every worker ran behind a wire session and every
// task was executed by a wire server.
func checkRemote(remoteWorkers int, served, tasks uint64) error {
	if remoteWorkers != degree {
		return fmt.Errorf("wire: %d of %d workers remote", remoteWorkers, degree)
	}
	if served != tasks {
		return fmt.Errorf("wire: servers executed %d tasks, %d were sent", served, tasks)
	}
	return nil
}

// linkCounts are the management plane's exactly-once counters at the end
// of a run.
type linkCounts struct {
	escalations uint64 // violations the child reported
	handled     uint64 // violations the parent's policy reacted to
	delivered   uint64 // ParentEndpoint.Delivered
	unique      uint64 // ParentEndpoint.UniqueCauses
	duplicates  uint64 // reports the endpoint suppressed as duplicates
	reattaches  uint64 // RemoteLink.Reattaches
}

// check requires every escalated violation to have crossed the link once
// and reached the parent's policy once, on a link that never went down.
func (l linkCounts) check() error {
	if l.escalations == 0 {
		return fmt.Errorf("link: no violation was escalated")
	}
	if l.handled != l.escalations || l.delivered != l.escalations || l.unique != l.escalations {
		return fmt.Errorf("link: %d escalated, %d delivered, %d unique causes, %d handled by the parent",
			l.escalations, l.delivered, l.unique, l.handled)
	}
	if l.duplicates != 0 || l.reattaches != 0 {
		return fmt.Errorf("link: %d duplicate reports, %d reattaches on a link that never went down",
			l.duplicates, l.reattaches)
	}
	return nil
}
