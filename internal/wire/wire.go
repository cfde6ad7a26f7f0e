// Package wire defines the Bitswap message vocabulary and a binary wire
// codec for it.
//
// The message model follows Bitswap 1.2 as described in Sec. III-D of the
// paper: a message carries want_list entries (WANT_HAVE, WANT_BLOCK, CANCEL),
// block presences (HAVE, DONT_HAVE) and raw blocks. Monitors log exactly
// these entries; the trace format references the entry types defined here.
package wire

import (
	"errors"
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
	// Priority orders concurrent wants; higher is more urgent.
	Priority int32
	// SendDontHave asks the recipient to answer DONT_HAVE instead of
	// staying silent.
	SendDontHave bool
}

// Presence is a HAVE/DONT_HAVE response for one CID.
type Presence struct {
	Type PresenceType
	CID  cid.CID
}

// Block is a data block together with its CID. In a simulated send, Data is
// the sender's stored block itself: it is shared, and nobody modifies it
// after it is stored or sent.
type Block struct {
	CID  cid.CID
	Data []byte
}

// Message is one Bitswap protocol message. A message and the block bytes it
// carries are shared and read-only once sent: a sender may hand the same
// *Message to many peers (one broadcast sends one message to every connected
// peer), and a receiving store keeps the very Data slice of each block it
// accepts. Neither sender nor receiver may modify the message or anything it
// points to afterwards.
type Message struct {
	// Full indicates the want_list replaces (rather than extends) the
	// sender's previously announced want_list.
	Full      bool
	Wantlist  []Entry
	Presences []Presence
	Blocks    []Block
}

// Empty reports whether the message carries no payload.
func (m *Message) Empty() bool {
	return len(m.Wantlist) == 0 && len(m.Presences) == 0 && len(m.Blocks) == 0
}

var (
	// ErrMessageTooLarge guards decode against absurd section counts.
	ErrMessageTooLarge = errors.New("wire: message too large")
	// ErrCorruptMessage is returned for any structurally invalid encoding.
	ErrCorruptMessage = errors.New("wire: corrupt message")
)

const (
	maxSectionLen = 1 << 20 // entries per section
	maxBlockSize  = 1 << 22 // 4 MiB, larger than any IPFS block
)

// Encode appends the binary representation of m to buf.
//
// Layout: flags byte, then three sections each prefixed with a uvarint count:
// want_list entries (type byte, flag byte, priority uvarint(zigzag), CID with
// uvarint length), presences (type byte, CID), blocks (CID, data with uvarint
// length).
func (m *Message) Encode(buf []byte) []byte {
	var flags byte
	if m.Full {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = cid.PutUvarint(buf, uint64(len(m.Wantlist)))
	for _, e := range m.Wantlist {
		buf = append(buf, byte(e.Type))
		var ef byte
		if e.SendDontHave {
			ef |= 1
		}
		buf = append(buf, ef)
		buf = cid.PutUvarint(buf, zigzag(e.Priority))
		buf = appendCID(buf, e.CID)
	}
	buf = cid.PutUvarint(buf, uint64(len(m.Presences)))
	for _, p := range m.Presences {
		buf = append(buf, byte(p.Type))
		buf = appendCID(buf, p.CID)
	}
	buf = cid.PutUvarint(buf, uint64(len(m.Blocks)))
	for _, b := range m.Blocks {
		buf = appendCID(buf, b.CID)
		buf = cid.PutUvarint(buf, uint64(len(b.Data)))
		buf = append(buf, b.Data...)
	}
	return buf
}

// Decode parses a message encoded by Encode. It returns the message and the
// number of bytes consumed.
func Decode(buf []byte) (*Message, int, error) {
	if len(buf) == 0 {
		return nil, 0, fmt.Errorf("%w: empty", ErrCorruptMessage)
	}
	m := &Message{Full: buf[0]&1 != 0}
	pos := 1

	count, err := readCount(buf, &pos)
	if err != nil {
		return nil, 0, err
	}
	if count > 0 {
		m.Wantlist = make([]Entry, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		if pos+2 > len(buf) {
			return nil, 0, ErrCorruptMessage
		}
		e := Entry{Type: EntryType(buf[pos]), SendDontHave: buf[pos+1]&1 != 0}
		if e.Type < WantBlock || e.Type > Cancel {
			return nil, 0, fmt.Errorf("%w: entry type %d", ErrCorruptMessage, buf[pos])
		}
		pos += 2
		zz, n, err := cid.Uvarint(buf[pos:])
		if err != nil {
			return nil, 0, fmt.Errorf("%w: priority: %v", ErrCorruptMessage, err)
		}
		pos += n
		e.Priority = unzigzag(zz)
		e.CID, err = readCID(buf, &pos)
		if err != nil {
			return nil, 0, err
		}
		m.Wantlist = append(m.Wantlist, e)
	}

	count, err = readCount(buf, &pos)
	if err != nil {
		return nil, 0, err
	}
	if count > 0 {
		m.Presences = make([]Presence, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		if pos >= len(buf) {
			return nil, 0, ErrCorruptMessage
		}
		p := Presence{Type: PresenceType(buf[pos])}
		if p.Type != Have && p.Type != DontHave {
			return nil, 0, fmt.Errorf("%w: presence type %d", ErrCorruptMessage, buf[pos])
		}
		pos++
		p.CID, err = readCID(buf, &pos)
		if err != nil {
			return nil, 0, err
		}
		m.Presences = append(m.Presences, p)
	}

	count, err = readCount(buf, &pos)
	if err != nil {
		return nil, 0, err
	}
	if count > 0 {
		m.Blocks = make([]Block, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		c, err := readCID(buf, &pos)
		if err != nil {
			return nil, 0, err
		}
		size, n, err := cid.Uvarint(buf[pos:])
		if err != nil || size > maxBlockSize {
			return nil, 0, fmt.Errorf("%w: block size", ErrCorruptMessage)
		}
		pos += n
		if pos+int(size) > len(buf) {
			return nil, 0, ErrCorruptMessage
		}
		data := make([]byte, size)
		copy(data, buf[pos:pos+int(size)])
		pos += int(size)
		m.Blocks = append(m.Blocks, Block{CID: c, Data: data})
	}
	return m, pos, nil
}

func readCount(buf []byte, pos *int) (uint64, error) {
	count, n, err := cid.Uvarint(buf[*pos:])
	if err != nil {
		return 0, fmt.Errorf("%w: count: %v", ErrCorruptMessage, err)
	}
	if count > maxSectionLen {
		return 0, ErrMessageTooLarge
	}
	*pos += n
	return count, nil
}

func appendCID(buf []byte, c cid.CID) []byte {
	raw := c.Key()
	buf = cid.PutUvarint(buf, uint64(len(raw)))
	return append(buf, raw...)
}

func readCID(buf []byte, pos *int) (cid.CID, error) {
	size, n, err := cid.Uvarint(buf[*pos:])
	if err != nil || size > 256 {
		return cid.CID{}, fmt.Errorf("%w: cid length", ErrCorruptMessage)
	}
	*pos += n
	if *pos+int(size) > len(buf) {
		return cid.CID{}, ErrCorruptMessage
	}
	c, err := cid.Decode(buf[*pos : *pos+int(size)])
	if err != nil {
		return cid.CID{}, fmt.Errorf("%w: %v", ErrCorruptMessage, err)
	}
	*pos += int(size)
	return c, nil
}

func zigzag(v int32) uint64 {
	return uint64(uint32(v<<1) ^ uint32(v>>31))
}

func unzigzag(v uint64) int32 {
	return int32(uint32(v>>1) ^ -uint32(v&1))
}
