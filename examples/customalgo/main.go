// Custom algorithm: write a collective algorithm in ResCCLang (the HM
// AllReduce of the paper's Fig. 16, shrunk to 2×4 GPUs), compile it,
// verify its semantics on the data plane, and execute it — comparing
// the ResCCL backend against the MSCCL-style baseline running the very
// same algorithm.
package main

import (
	"fmt"
	"log"

	"github.com/resccl/resccl"
)

// hmAllReduce is the paper's Fig. 16 program parameterized for 2 nodes
// of 4 GPUs: intra-node full-mesh ReduceScatter, inter-node ring
// ReduceScatter, inter-node ring AllGather, intra-node full-mesh
// AllGather. Note that the program states only algorithm logic — no
// channels, thread blocks or buffers.
const hmAllReduce = `
def ResCCLAlgo(nRanks=8, nChannels=4, nWarps=16, AlgoName="HM", OpType="Allreduce", GPUPerNode=4, NICPerNode=2):
    nNodes = 2
    nGpusperNode = 4
    nChunks = nNodes * nGpusperNode
    for n in range(0, nNodes):
        for r in range(0, nGpusperNode):
            for baseStep in range(0, nNodes):
                for offset in range(0, nGpusperNode - 1):
                    srcRank = nGpusperNode * n + r
                    dstRank = (r + offset + 1) % nGpusperNode + nGpusperNode * n
                    step = baseStep * (nGpusperNode - 1) + offset
                    transfer(srcRank, dstRank, step, (dstRank + baseStep * nGpusperNode) % nChunks, rrc)
    for n in range(0, nNodes):
        for r in range(0, nGpusperNode):
            for baseStep in range(0, nNodes - 1):
                srcRank = nGpusperNode * n + r
                dstRank = (srcRank + nGpusperNode) % nChunks
                step = nNodes * (nGpusperNode - 1) + baseStep
                transfer(srcRank, dstRank, step, (srcRank + nChunks - baseStep * nGpusperNode) % nChunks, rrc)
    for n in range(0, nNodes):
        for r in range(0, nGpusperNode):
            for baseStep in range(0, nNodes - 1):
                srcRank = nGpusperNode * n + r
                dstRank = (srcRank + nGpusperNode) % nChunks
                step = nNodes * (nGpusperNode - 1) + nNodes - 1 + baseStep
                chunkId = (srcRank + nChunks - (baseStep + nNodes - 1) * nGpusperNode) % nChunks
                transfer(srcRank, dstRank, step, chunkId, recv)
    for n in range(0, nNodes):
        for r in range(0, nGpusperNode):
            for baseStep in range(0, nNodes):
                for offset in range(0, nGpusperNode - 1):
                    srcRank = nGpusperNode * n + r
                    dstRank = (r + offset + 1) % nGpusperNode + nGpusperNode * n
                    step = nNodes * (nGpusperNode - 1) + 2 * nNodes - 2 + baseStep
                    transfer(srcRank, dstRank, step, (srcRank + baseStep * nGpusperNode) % nChunks, recv)
`

func main() {
	algo, err := resccl.CompileLang(hmAllReduce)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %q: %v over %d ranks, %d transfers\n",
		algo.Name, algo.Op, algo.NRanks, len(algo.Transfers))

	// Ground truth first: the transfer plan must provably satisfy the
	// AllReduce postcondition.
	if err := resccl.Verify(algo); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verification: AllReduce postcondition holds")

	tp := resccl.NewTopology(2, 4, resccl.A100())
	fmt.Printf("\n%-10s %-10s %12s %14s\n", "backend", "buffer", "time", "algbw (GB/s)")
	for _, kind := range []resccl.BackendKind{resccl.BackendMSCCL, resccl.BackendResCCL} {
		comm, err := resccl.NewCommunicator(tp, resccl.WithBackend(kind))
		if err != nil {
			log.Fatal(err)
		}
		for _, buf := range []int64{128 << 20, 1 << 30} {
			run, err := comm.RunAlgorithm(algo, buf)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-10s %-10d %12v %14.1f\n",
				run.Backend, buf>>20, run.Completion.Round(1000), run.AlgoBandwidth()/1e9)
		}
	}
	fmt.Println("\nsame algorithm, same cluster — the difference is backend scheduling alone.")
}
