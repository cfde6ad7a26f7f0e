// Package geoip is the offline substitution for the MaxMind GeoIP2 database
// used in the paper's Table II analysis: a deterministic synthetic IPv4
// allocator plus the reverse lookup from address to country.
package geoip

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"

	"bitswapmon/internal/simnet"
)

// countryBlocks assigns each country one or more synthetic /8 blocks. Using
// whole /8s keeps lookups trivially prefix-based, like a radix GeoIP db.
var countryBlocks = map[simnet.Region][]byte{
	simnet.RegionUS:    {3, 4, 13},
	simnet.RegionNL:    {77},
	simnet.RegionDE:    {78, 79},
	simnet.RegionCA:    {99},
	simnet.RegionFR:    {90},
	simnet.RegionOther: {200, 201, 202},
}

// DB allocates synthetic addresses and resolves them back to countries.
// Safe for concurrent use.
type DB struct {
	mu   sync.Mutex
	next map[simnet.Region]uint32 // allocation counter per region
	// byOctet is the region of each /8 block, "" where none is allocated.
	byOctet [256]simnet.Region
}

// New returns a database with the default allocation plan.
func New() *DB {
	db := &DB{next: make(map[simnet.Region]uint32)}
	for region, blocks := range countryBlocks {
		for _, b := range blocks {
			db.byOctet[b] = region
		}
	}
	return db
}

// ErrExhausted is returned when a region's address blocks are fully
// allocated.
var ErrExhausted = errors.New("geoip: address blocks exhausted")

// Allocate returns a fresh "ip:port" address inside the region's block.
// Unknown regions allocate from the Other block.
func (db *DB) Allocate(region simnet.Region) (string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	blocks, ok := countryBlocks[region]
	if !ok {
		region = simnet.RegionOther
		blocks = countryBlocks[region]
	}
	n := db.next[region]
	// 2^24 hosts per /8 block.
	if n >= uint32(len(blocks))<<24 {
		return "", fmt.Errorf("%w: %s", ErrExhausted, region)
	}
	db.next[region] = n + 1
	block := blocks[n>>24]
	host := n & 0xffffff
	return fmt.Sprintf("%d.%d.%d.%d:4001", block, (host>>16)&0xff, (host>>8)&0xff, host&0xff), nil
}

// Lookup resolves an "ip:port" or bare IP string to its country. It returns
// false for unparseable or unallocated prefixes. It accepts what
// net.SplitHostPort and net.ParseIP accept: an IPv4 address, also mapped
// into IPv6, and no zone.
func (db *DB) Lookup(addr string) (simnet.Region, bool) {
	ip, err := netip.ParseAddr(host(addr))
	if err != nil || ip.Zone() != "" {
		return "", false
	}
	if ip = ip.Unmap(); !ip.Is4() {
		return "", false
	}
	region := db.byOctet[ip.As4()[0]]
	return region, region != ""
}

// host returns addr's host as net.SplitHostPort splits it, or addr itself
// where SplitHostPort fails. Without brackets SplitHostPort succeeds only
// on exactly one colon, so the usual "ip:port" form is split here without
// calling it.
func host(addr string) string {
	if strings.IndexByte(addr, '[') < 0 && strings.IndexByte(addr, ']') < 0 {
		if i := strings.IndexByte(addr, ':'); i >= 0 && strings.IndexByte(addr[i+1:], ':') < 0 {
			return addr[:i]
		}
		return addr
	}
	if h, _, err := net.SplitHostPort(addr); err == nil {
		return h
	}
	return addr
}
