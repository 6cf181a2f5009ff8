package ir

import "fmt"

// Protocol names an NCCL-style transport protocol tier. Real NCCL picks
// between three wire protocols per message size: LL (low latency) sends
// 8-byte data+flag words so the receiver can poll without a separate
// synchronization round trip, at the cost of half the wire bandwidth;
// LL128 amortizes the flag over 128-byte lines (120/128 of the wire
// bandwidth) while keeping most of the latency win; Simple uses full
// bandwidth but pays the full handshake latency per chunk. The tier is
// plan metadata: compilation is protocol-independent, and the simulator
// applies the tier's cost-model parameters (simcost.Params) at run time.
type Protocol int

// Protocol tiers. ProtoAuto is the zero value so existing plans and
// requests that never mention protocols keep their behaviour: auto
// resolves to the backend's size-based choice where a buffer size is
// known, and simulates exactly like ProtoSimple otherwise.
const (
	ProtoAuto Protocol = iota
	ProtoLL
	ProtoLL128
	ProtoSimple
)

// String returns the NCCL spelling of the protocol tier.
func (p Protocol) String() string {
	switch p {
	case ProtoAuto:
		return "auto"
	case ProtoLL:
		return "LL"
	case ProtoLL128:
		return "LL128"
	case ProtoSimple:
		return "Simple"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Valid reports whether p is one of the defined tiers (including auto).
func (p Protocol) Valid() bool { return p >= ProtoAuto && p <= ProtoSimple }

// Forced reports whether p names a concrete tier rather than auto.
func (p Protocol) Forced() bool { return p != ProtoAuto && p.Valid() }

// ParseProtocol converts a protocol name ("auto", "ll", "ll128",
// "simple", case-insensitive on the NCCL spellings) to its Protocol.
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "auto", "Auto":
		return ProtoAuto, nil
	case "ll", "LL":
		return ProtoLL, nil
	case "ll128", "LL128":
		return ProtoLL128, nil
	case "simple", "Simple":
		return ProtoSimple, nil
	}
	return 0, fmt.Errorf("ir: unknown protocol %q (want auto, ll, ll128 or simple)", s)
}
