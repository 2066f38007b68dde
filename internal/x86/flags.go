package x86

// FlagSet is a bitset over the five arithmetic EFLAGS bits the VXA
// subset can observe. It is the currency of the translator's flag
// liveness analysis: every micro-op kind declares which flags it reads
// and writes (uop.Kinds), and every condition code which flags it tests.
type FlagSet uint8

// Individual flag bits.
const (
	FlagCF FlagSet = 1 << iota
	FlagPF
	FlagZF
	FlagSF
	FlagOF

	FlagsNone FlagSet = 0
	FlagsAll  FlagSet = FlagCF | FlagPF | FlagZF | FlagSF | FlagOF
)

// ccUses[cc] is the set of flags condition code cc tests. Each
// complementary pair (cc, cc^1) tests the same set.
var ccUses = [16]FlagSet{
	CCO: FlagOF, CCNO: FlagOF,
	CCB: FlagCF, CCAE: FlagCF,
	CCE: FlagZF, CCNE: FlagZF,
	CCBE: FlagCF | FlagZF, CCA: FlagCF | FlagZF,
	CCS: FlagSF, CCNS: FlagSF,
	CCP: FlagPF, CCNP: FlagPF,
	CCL: FlagSF | FlagOF, CCGE: FlagSF | FlagOF,
	CCLE: FlagZF | FlagSF | FlagOF, CCG: FlagZF | FlagSF | FlagOF,
}

// CCUses returns the flags condition code cc reads.
func CCUses(cc CC) FlagSet {
	if cc < 16 {
		return ccUses[cc]
	}
	return FlagsAll
}

// Negate returns the complementary condition (taken exactly when cc is
// not). The hardware encoding pairs complements at bit 0.
func (c CC) Negate() CC { return c ^ 1 }
