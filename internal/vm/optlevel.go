package vm

import (
	"fmt"
	"os"
	"strings"
	"sync"
)

// OptLevel is how much of the translation engine a VM uses: one ordered
// ladder on which every step adds one layer to the step below it, so the
// difference between two adjacent levels is what that layer buys. Results
// — output, Steps, fuel, traps — are the same at every level; only speed
// differs.
type OptLevel uint8

// The ladder. The zero value is "not chosen": the VM runs at the process
// default, which is OptTier2 unless VXA_OPT names another step.
const (
	OptDefault     OptLevel = iota
	OptReference            // no fragment cache: each instruction is decoded, lowered and run on its own (the §4.2 ablation)
	OptBlocks               // basic-block fragments of lowered micro-ops, cached and chained
	OptOptimized            // + the translation-time optimizer (fusion, dead-flag elision) over each fragment
	OptSuperblocks          // + hot paths re-translated into superblocks
	OptTier2                // + hot superblocks compiled to host code (package tier2); the default
	OptEager                // tier 2 with every superblock compiled on first entry: what the test wall forces
)

// optNames spells the levels for VXA_OPT and for reports.
var optNames = [...]string{
	OptDefault: "default", OptReference: "reference", OptBlocks: "blocks", OptOptimized: "optimized",
	OptSuperblocks: "superblocks", OptTier2: "tier2", OptEager: "eager",
}

func (l OptLevel) String() string {
	if int(l) < len(optNames) {
		return optNames[l]
	}
	return fmt.Sprintf("OptLevel(%d)", uint8(l))
}

// OptLevels returns the ladder from OptReference up, for sweeps.
func OptLevels() []OptLevel {
	return []OptLevel{OptReference, OptBlocks, OptOptimized, OptSuperblocks, OptTier2, OptEager}
}

// optOverride reads the process-wide override: VXA_OPT=<level> is the
// level of every VM whose Config leaves OptLevel unset, and unset or
// empty means OptTier2. It is the only place the engine consults the
// environment. Anything but an exact level name is an error, which
// vm.New and Deserialize report: a misspelt override must not pass for
// the default.
func optOverride() (OptLevel, error) {
	s := os.Getenv("VXA_OPT")
	if s == "" {
		return OptTier2, nil
	}
	for _, l := range OptLevels() {
		if s == optNames[l] {
			return l, nil
		}
	}
	return OptTier2, fmt.Errorf("vm: VXA_OPT=%q is not an optimization level (want one of %s)",
		s, strings.Join(optNames[OptReference:], ", "))
}

// processOpt is optOverride resolved once per process, so that nothing
// on the Reset, promotion or compile path reads the environment.
var processOpt = sync.OnceValues(optOverride)

// setLevel records the configured level and resolves the one the VM runs
// at. The override applies only where nothing was configured, and only
// to the VM: what a Snapshot or an artifact carries is v.opt.
func (v *VM) setLevel(configured OptLevel) error {
	if configured > OptEager {
		return fmt.Errorf("vm: %v is not an optimization level", configured)
	}
	v.opt, v.level = configured, configured
	var err error
	if configured == OptDefault {
		v.level, err = processOpt()
	}
	v.t2Hot = t2HotDefault
	if v.level == OptEager {
		v.t2Hot = 1
	}
	return err
}
