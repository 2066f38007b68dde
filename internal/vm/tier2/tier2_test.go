package tier2

import (
	"testing"

	"vxa/internal/vm/uop"
)

// TestNewExitRefunds: an exit gives back exactly what the trace entry
// charged for the part of the trace it leaves unexecuted — the micro-ops
// after the exiting one and, inside a fused micro-op that faults, the
// constituent instructions that had not started; for a resume, the
// exiting micro-op as well, whole.
func TestNewExitRefunds(t *testing.T) {
	us := []uop.Uop{
		{Kind: uop.KindLoad, Cost: 1},
		{Kind: uop.KindCmpBoolRR, Cost: 3},
		{Kind: uop.KindLoadAluRR, Cost: 2},
		{Kind: uop.KindAddRR, Cost: 1},
		{Kind: uop.KindJmp, Cost: 1},
	}
	if uop.Cost(us) != 8 {
		t.Fatal("test trace does not cost 8")
	}
	cases := []struct {
		name       string
		x          Exit
		refund     int64
		refundUops uint64
	}{
		{"plain exit from the first micro-op", Exit{Kind: ExitGuard, Uop: 0}, 7, 4},
		{"plain exit from a fused micro-op: all of it ran", Exit{Kind: ExitGuard, Uop: 1}, 4, 3},
		{"fault in the first micro-op: it is charged", Exit{Kind: ExitReadFault, Uop: 0, Started: 1}, 7, 4},
		{"fused, first instruction faults: two never started", Exit{Kind: ExitReadFault, Uop: 1, Started: 1}, 6, 3},
		{"fused, second instruction faults: one never started", Exit{Kind: ExitReadFault, Uop: 1, Started: 2}, 5, 3},
		{"fused pair, second instruction faults: nothing to add", Exit{Kind: ExitReadFault, Uop: 2, Started: 2}, 2, 2},
		{"fused pair, first instruction faults", Exit{Kind: ExitWriteFault, Uop: 2, Started: 1}, 3, 2},
		{"last micro-op", Exit{Kind: ExitEnd, Uop: 4}, 0, 0},
		{"fault in the last micro-op", Exit{Kind: ExitIllegal, Uop: 4, Started: 1}, 0, 0},
		{"resume at the first micro-op: nothing ran", Exit{Kind: ExitResume, Uop: 0}, 8, 5},
		{"resume at a fused micro-op: none of it ran", Exit{Kind: ExitResume, Uop: 1}, 7, 4},
		{"resume at the last micro-op", Exit{Kind: ExitResume, Uop: 4}, 1, 1},
	}
	for _, c := range cases {
		x := newExit(us, suffixCosts(make([]int64, len(us)), us), c.x)
		if x.Refund != c.refund || x.RefundUops != c.refundUops || x.Slot != -1 {
			t.Errorf("%s: refund %d instructions, %d micro-ops, slot %d; want %d, %d, -1",
				c.name, x.Refund, x.RefundUops, x.Slot, c.refund, c.refundUops)
		}
	}
}

// TestAcctPacking: one add counts a pass and its micro-ops, and refunds
// come off the micro-op field alone.
func TestAcctPacking(t *testing.T) {
	var m Machine
	for i := 0; i < 1000; i++ {
		m.Acct += acctIter + 1536
		m.Acct -= 1535
	}
	if m.Passes() != 1000 || m.Uops() != 1000 {
		t.Fatalf("%d passes, %d micro-ops", m.Passes(), m.Uops())
	}
}
