// Package wire defines the Bitswap message vocabulary. Simulated nodes
// exchange *Message values in memory; nothing serializes them.
//
// The message model follows Bitswap 1.2 as described in Sec. III-D of the
// paper: a message carries want_list entries (WANT_HAVE, WANT_BLOCK, CANCEL),
// block presences (HAVE, DONT_HAVE) and raw blocks. Monitors log exactly
// these entries; the trace format references the entry types defined here.
package wire

import (
	"fmt"

	"bitswapmon/internal/cid"
)

// EntryType classifies a want_list entry.
type EntryType uint8

// Want_list entry types. WANT_BLOCK predates IPFS v0.5; WANT_HAVE was
// introduced with it (the paper's Fig. 4 tracks the transition).
const (
	WantBlock EntryType = iota + 1
	WantHave
	Cancel
)

// String renders the entry type using the paper's spelling.
func (t EntryType) String() string {
	switch t {
	case WantBlock:
		return "WANT_BLOCK"
	case WantHave:
		return "WANT_HAVE"
	case Cancel:
		return "CANCEL"
	default:
		return fmt.Sprintf("EntryType(%d)", uint8(t))
	}
}

// ParseEntryType is the inverse of EntryType.String.
func ParseEntryType(s string) (EntryType, error) {
	switch s {
	case "WANT_BLOCK":
		return WantBlock, nil
	case "WANT_HAVE":
		return WantHave, nil
	case "CANCEL":
		return Cancel, nil
	default:
		return 0, fmt.Errorf("wire: unknown entry type %q", s)
	}
}

// PresenceType classifies a block-presence response.
type PresenceType uint8

// Block presence types. DONT_HAVE is optional on the wire; absence of data is
// otherwise detected by timeout.
const (
	Have PresenceType = iota + 1
	DontHave
)

// String renders the presence type using the paper's spelling.
func (t PresenceType) String() string {
	switch t {
	case Have:
		return "HAVE"
	case DontHave:
		return "DONT_HAVE"
	default:
		return fmt.Sprintf("PresenceType(%d)", uint8(t))
	}
}

// Entry is one want_list entry.
type Entry struct {
	Type EntryType
	CID  cid.CID
	// SendDontHave asks the recipient to answer DONT_HAVE instead of
	// staying silent.
	SendDontHave bool
}

// Presence is a HAVE/DONT_HAVE response for one CID.
type Presence struct {
	Type PresenceType
	CID  cid.CID
}

// Block is a data block together with its CID. Data is what the sender's
// store keeps of the block (blockstore.KeepsBytes): a DagProtobuf node's
// encoding, shared and never modified after it is stored or sent, and nil
// for a block of any other codec, which is its CID alone.
type Block struct {
	CID  cid.CID
	Data []byte
}

// Message is one Bitswap protocol message. A message and the block bytes it
// carries are shared and read-only once sent: a sender may hand the same
// *Message to many peers (one broadcast sends one message to every connected
// peer), and a receiving store keeps the very Data slice of each DagProtobuf
// block it accepts. Neither sender nor receiver may modify the message or
// anything it points to afterwards.
type Message struct {
	Wantlist  []Entry
	Presences []Presence
	Blocks    []Block
}
