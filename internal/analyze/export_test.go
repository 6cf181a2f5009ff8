package analyze

import "github.com/resccl/resccl/internal/kernel"

// Pairing exposes the deadlock pass's rendezvous pairing to tests: one
// row per invocation node, {task, send TB, send instruction, send
// micro-batch, recv TB, recv instruction, recv micro-batch}, with -1
// for every field of a missing side. Barrier nodes are omitted.
func Pairing(k *kernel.Kernel, nMB int) [][7]int {
	w := buildWaitFor(newPlanView(k), nMB)
	var out [][7]int
	for i, t := range w.task {
		if t < 0 {
			continue
		}
		row := [7]int{int(t), -1, -1, -1, -1, -1, -1}
		mb := w.mb(int32(i))
		// The instruction index follows from the TB's loop order (the
		// inverse of TBProgram.Instr).
		instr := func(o occ) int {
			if prog := k.TBs[o.tb]; prog.Order != kernel.TaskMajor {
				return mb*len(prog.Slots) + int(o.slot)
			}
			return int(o.slot)*nMB + mb
		}
		if o, ok := w.side(int32(i), false); ok {
			row[1], row[2], row[3] = int(o.tb), instr(o), mb
		}
		if o, ok := w.side(int32(i), true); ok {
			row[4], row[5], row[6] = int(o.tb), instr(o), mb
		}
		out = append(out, row)
	}
	return out
}
