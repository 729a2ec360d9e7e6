package analysis

import (
	"fmt"

	"grover/internal/ir"
)

// checkBarrierDivergence reports every barrier that executes under
// divergent control flow. The OpenCL spec requires a barrier to be
// reached by either all work-items of a work-group or none; a barrier in
// the influence region of a divergent branch can deadlock or desync the
// group (undefined behaviour).
func checkBarrierDivergence(cfg *ir.CFG, uni *Uniformity) []Finding {
	var out []Finding
	for _, b := range cfg.Blocks {
		if !uni.DivergentBlock(b) {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op != ir.OpBarrier {
				continue
			}
			out = append(out, Finding{
				Detector: DetectorBarrierDivergence,
				Severity: SeverityError,
				Kernel:   cfg.Fn.Name,
				Pos:      in.Pos,
				Message: fmt.Sprintf("barrier inside divergent control flow: "+
					"work-items of a group may disagree on reaching it (undefined behaviour); "+
					"block %s is guarded by a condition that depends on the work-item id", b.Name),
			})
		}
	}
	return out
}
