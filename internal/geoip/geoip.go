// Package geoip is the offline substitution for the MaxMind GeoIP2 database
// used in the paper's Table II analysis: a deterministic synthetic IPv4
// allocator plus the reverse lookup from address to country.
package geoip

import (
	"errors"
	"fmt"
	"net"
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
	mu     sync.Mutex
	next   map[simnet.Region]uint32 // allocation counter per region
	byByte map[byte]simnet.Region
}

// New returns a database with the default allocation plan.
func New() *DB {
	db := &DB{
		next:   make(map[simnet.Region]uint32),
		byByte: make(map[byte]simnet.Region),
	}
	for region, blocks := range countryBlocks {
		for _, b := range blocks {
			db.byByte[b] = region
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
// false for unparseable or unallocated prefixes.
func (db *DB) Lookup(addr string) (simnet.Region, bool) {
	host := addr
	if h, _, err := net.SplitHostPort(addr); err == nil {
		host = h
	}
	ip := net.ParseIP(host)
	if ip == nil {
		return "", false
	}
	v4 := ip.To4()
	if v4 == nil {
		return "", false
	}
	region, ok := db.byByte[v4[0]]
	return region, ok
}
