package cid

import "strconv"

// Codec identifies the content type referenced by a CID, following the
// multicodec table. The values below are the real multicodec code points so
// that CIDs produced by this library are wire-compatible with IPFS.
type Codec uint64

// Multicodec code points relevant to the paper's Table I, plus a few extras
// that appear in the "Others" bucket.
const (
	Raw           Codec = 0x55
	DagProtobuf   Codec = 0x70
	DagCBOR       Codec = 0x71
	DagJSON       Codec = 0x0129
	GitRaw        Codec = 0x78
	EthereumTx    Codec = 0x93
	EthBlock      Codec = 0x90
	BitcoinBlock  Codec = 0xb0
	ZcashBlock    Codec = 0xc0
	FilCommSealed Codec = 0xf102
	Libp2pKey     Codec = 0x72
)

var codecNames = map[Codec]string{
	Raw:           "Raw",
	DagProtobuf:   "DagProtobuf",
	DagCBOR:       "DagCBOR",
	DagJSON:       "DagJSON",
	GitRaw:        "GitRaw",
	EthereumTx:    "EthereumTx",
	EthBlock:      "EthBlock",
	BitcoinBlock:  "BitcoinBlock",
	ZcashBlock:    "ZcashBlock",
	FilCommSealed: "FilCommitmentSealed",
	Libp2pKey:     "Libp2pKey",
}

// String returns the conventional multicodec name, or a hex literal for
// unknown code points.
func (c Codec) String() string {
	if name, ok := codecNames[c]; ok {
		return name
	}
	return "codec-0x" + strconv.FormatUint(uint64(c), 16)
}
