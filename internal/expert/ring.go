// Package expert builds the expert-designed collective algorithms the
// paper uses: the vendor-standard ring family (NCCL's workhorse), the
// double binary tree, and the hierarchical mesh (HM) algorithms of
// Appendix A developed for the testbed topology.
//
// Builders return plain ir.Algorithm values; correctness of every
// builder is enforced by collective.Check in tests.
package expert

import "github.com/resccl/resccl/internal/ir"

// The standard rings are the one-channel case of the channelized rings
// over the identity ring.

// RingAllGather builds the standard ring AllGather: at step s, rank r
// sends chunk (r−s) mod n to rank (r+1) mod n; after n−1 steps every
// rank holds every chunk. This is the running example of Fig. 5(a).
func RingAllGather(nRanks int) (*ir.Algorithm, error) {
	return oneChannel(ChannelizedRingAllGather(nRanks, 1, nil))
}

// RingReduceScatter builds the standard ring ReduceScatter: at step s,
// rank r sends its partial sum of chunk (r−1−s) mod n to rank (r+1)
// mod n with recvReduceCopy. The last transfer of chunk c's chain
// (step n−2) is sent by rank c−1 into rank c, so rank r ends holding
// the full sum of chunk r — the operator's ownership convention.
func RingReduceScatter(nRanks int) (*ir.Algorithm, error) {
	return oneChannel(ChannelizedRingReduceScatter(nRanks, 1, nil))
}

// RingAllReduce builds the standard two-phase ring AllReduce:
// ReduceScatter followed by AllGather, 2(n−1) steps in total. The two
// phases are annotated as stages for stage-level backends.
func RingAllReduce(nRanks int) (*ir.Algorithm, error) {
	return oneChannel(ChannelizedRingAllReduce(nRanks, 1, nil))
}

// oneChannel drops a one-channel ring's channel-count hint: a standard
// ring declares none, as its ResCCLang program does not.
func oneChannel(a *ir.Algorithm, err error) (*ir.Algorithm, error) {
	if a != nil {
		a.NChannels = 0
	}
	return a, err
}
