package plan

import (
	"sort"
	"strings"
)

// HintSet is a Bao-style steering knob set: it enables or disables physical
// operator classes for an entire optimization run. The zero value allows
// everything. A sequential scan is always allowed.
type HintSet struct {
	NoHashJoin   bool
	NoMergeJoin  bool
	NoNestedLoop bool
	NoIndexScan  bool
}

// AllowsJoin reports whether the hint set permits the join operator.
func (h HintSet) AllowsJoin(op Op) bool {
	switch op {
	case HashJoin:
		return !h.NoHashJoin
	case MergeJoin:
		return !h.NoMergeJoin
	case NestedLoopJoin:
		return !h.NoNestedLoop
	default:
		return false
	}
}

// AllowsScan reports whether the hint set permits the scan operator.
func (h HintSet) AllowsScan(op Op) bool {
	switch op {
	case SeqScan:
		return true
	case IndexScan:
		return !h.NoIndexScan
	default:
		return false
	}
}

// Valid reports whether at least one join operator remains enabled (a
// sequential scan always does).
func (h HintSet) Valid() bool {
	return !h.NoHashJoin || !h.NoMergeJoin || !h.NoNestedLoop
}

// String lists the disabled operator classes, or "default".
func (h HintSet) String() string {
	var off []string
	if h.NoHashJoin {
		off = append(off, "hashjoin")
	}
	if h.NoMergeJoin {
		off = append(off, "mergejoin")
	}
	if h.NoNestedLoop {
		off = append(off, "nestloop")
	}
	if h.NoIndexScan {
		off = append(off, "indexscan")
	}
	if len(off) == 0 {
		return "default"
	}
	sort.Strings(off)
	return "no-" + strings.Join(off, ",no-")
}

// BaoHintSets is the canonical arm set used by the Bao-style optimizer:
// the default plus single-operator-class prohibitions, mirroring the 5-arm
// configuration the Bao paper found sufficient.
func BaoHintSets() []HintSet {
	return []HintSet{
		{},
		{NoHashJoin: true},
		{NoMergeJoin: true},
		{NoNestedLoop: true},
		{NoIndexScan: true},
		{NoHashJoin: true, NoMergeJoin: true},
		{NoNestedLoop: true, NoIndexScan: true},
	}
}
