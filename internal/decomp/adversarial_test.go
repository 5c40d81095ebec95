package decomp

import "testing"

// TestBalancingPivotBlowUp demonstrates the §4.2 worst case: the balancing
// decomposition's pivot size grows linearly in k = Θ(log n) on the
// adversarial tree, while the ideal decomposition of §4.3 stays at θ ≤ 2 on
// the very same tree. This is the reason Lemma 4.1 matters.
func TestBalancingPivotBlowUp(t *testing.T) {
	for _, k := range []int{4, 6, 8, 10} {
		tr := AdversarialBalancingTree(k)
		n := tr.N()
		bal := Balancing(tr)
		if err := bal.Validate(); err != nil {
			t.Fatalf("k=%d: balancing invalid: %v", k, err)
		}
		if got := bal.PivotSize(); got < k-1 {
			t.Errorf("k=%d (n=%d): balancing θ = %d, want ≥ %d (Θ(log n) blow-up)", k, n, got, k-1)
		}
		ideal := Ideal(tr)
		if err := ideal.Validate(); err != nil {
			t.Fatalf("k=%d: ideal invalid: %v", k, err)
		}
		if got := ideal.PivotSize(); got > 2 {
			t.Errorf("k=%d (n=%d): ideal θ = %d, want ≤ 2 (Lemma 4.1)", k, n, got)
		}
	}
}

// TestIdealDepthOnAdversarialTree: the ideal decomposition keeps logarithmic
// depth on the adversarial tree too.
func TestIdealDepthOnAdversarialTree(t *testing.T) {
	tr := AdversarialBalancingTree(10)
	n := tr.N()
	h := Ideal(tr)
	if d, bound := h.MaxDepth(), 2*log2Ceil(n)+1; d > bound {
		t.Errorf("ideal depth %d > %d on adversarial tree (n=%d)", d, bound, n)
	}
}
