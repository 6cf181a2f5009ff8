package analyze

import "github.com/resccl/resccl/internal/kernel"

// Pairing exposes the deadlock pass's rendezvous pairing to tests: one
// row per invocation node, {task, send TB, send instruction, send
// micro-batch, recv TB, recv instruction, recv micro-batch}, with -1
// for every field of a missing side. Barrier nodes are omitted.
func Pairing(k *kernel.Kernel, nMB int) [][7]int {
	w := buildWaitFor(newPlanView(k), nMB)
	var out [][7]int
	for _, n := range w.nodes {
		if n.task < 0 {
			continue
		}
		row := [7]int{int(n.task), -1, -1, -1, -1, -1, -1}
		if n.sendK >= 0 {
			row[1], row[2], row[3] = int(n.sendTB), int(n.sendK), int(n.sendMB)
		}
		if n.recvK >= 0 {
			row[4], row[5], row[6] = int(n.recvTB), int(n.recvK), int(n.recvMB)
		}
		out = append(out, row)
	}
	return out
}
