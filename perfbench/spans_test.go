package main

import (
	"testing"

	"l2bm/internal/core"
)

// The timing wrapper must not hide the policy's identity or its optional
// preemption capability: the MMU type-asserts core.PreemptivePolicy.
func TestTimedFactoryForwardsNameAndPreemption(t *testing.T) {
	calls := &policyCalls{}
	for name, preemptive := range map[string]bool{"Occamy": true, "L2BM": false, "DT": false} {
		p := timedFactory(name, calls)()
		if p.Name() != name {
			t.Errorf("wrapped %s reports Name() %q", name, p.Name())
		}
		if _, ok := p.(core.PreemptivePolicy); ok != preemptive {
			t.Errorf("wrapped %s: PreemptivePolicy = %v, want %v", name, ok, preemptive)
		}
	}
}
