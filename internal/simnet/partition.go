package simnet

import (
	"hash/fnv"
	"slices"
	"time"
)

// regionPartition is the placement policy: regions with low mutual latency
// share a shard, so the minimum latency between shards — and with it the
// conservative lookahead window — is as wide as the model allows. With the
// default latency model this merges the EU and NA regions onto one shard and
// keeps RegionOther on another, widening the window from 12ms (the global
// minimum) to 90ms (the minimum cross-group base latency): 7.5x fewer
// lockstep barriers for the same simulated time. Models without region data
// (e.g. Fixed) have no partition and fall back to ID-hash placement.
type regionPartition struct {
	groupOf map[Region]int32
	groups  int32
	// lookahead is the minimum base latency between regions in different
	// groups: no message between distinct groups can be faster.
	lookahead time.Duration
}

// planPartition clusters the model's regions by base latency. It evaluates
// every merge threshold t (regions whose base latency <= t land in one
// group) and picks the one maximizing
//
//	L(t) * min(C(t), shards)
//
// where L(t) is the minimum cross-group base latency (the lookahead the
// grouping buys) and C(t) the group count (the parallelism it keeps). Wider
// windows trade against idle shards; the product favors fewer, wider windows
// once the latency gap is large, which is the right call for the lockstep
// engine whose per-window barrier cost is fixed. Returns nil (hash
// placement) when the model has no region table or clustering cannot beat
// the trivial single-group/all-groups layouts.
func planPartition(lm *LatencyModel, shards int) *regionPartition {
	if len(lm.Base) == 0 || shards < 1 {
		return nil
	}
	// Deterministic region universe: sorted set of regions in the table.
	seen := map[Region]bool{}
	var regions []Region
	for k := range lm.Base {
		for _, r := range k {
			if !seen[r] {
				seen[r] = true
				regions = append(regions, r)
			}
		}
	}
	slices.Sort(regions)
	n := len(regions)
	if n < 2 {
		return nil
	}
	ri := make(map[Region]int, n)
	for i, r := range regions {
		ri[r] = i
	}
	// Pairwise base latencies between distinct regions (missing -> Default).
	dist := make([][]time.Duration, n)
	var thresholds []time.Duration
	for i := range dist {
		dist[i] = make([]time.Duration, n)
		for j := range dist[i] {
			if i == j {
				continue
			}
			d, ok := lm.Base[[2]Region{regions[i], regions[j]}]
			if !ok {
				d = lm.Default
			}
			dist[i][j] = d
			if i < j && !slices.Contains(thresholds, d) {
				thresholds = append(thresholds, d)
			}
		}
	}
	slices.Sort(thresholds)

	components := func(t time.Duration) []int {
		comp := make([]int, n)
		for i := range comp {
			comp[i] = -1
		}
		next := 0
		var stack []int
		for i := range comp {
			if comp[i] >= 0 {
				continue
			}
			comp[i] = next
			stack = append(stack[:0], i)
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for u := 0; u < n; u++ {
					if u != v && comp[u] < 0 && dist[v][u] <= t {
						comp[u] = next
						stack = append(stack, u)
					}
				}
			}
			next++
		}
		return comp
	}

	var best []int
	var bestScore, bestL time.Duration
	// t just below the smallest threshold keeps every region separate.
	candidates := append([]time.Duration{-1}, thresholds...)
	for _, t := range candidates {
		comp := components(t)
		c := slices.Max(comp) + 1
		if c < 2 {
			continue // one group means a serial engine with barrier overhead
		}
		l := time.Duration(0)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if comp[i] != comp[j] && (l == 0 || dist[i][j] < l) {
					l = dist[i][j]
				}
			}
		}
		score := l * time.Duration(min(c, shards))
		if score > bestScore {
			bestScore, bestL, best = score, l, comp
		}
	}
	if best == nil {
		return nil
	}
	p := &regionPartition{
		groupOf:   make(map[Region]int32, n),
		groups:    int32(slices.Max(best) + 1),
		lookahead: bestL,
	}
	for i, r := range regions {
		p.groupOf[r] = int32(best[i])
	}
	return p
}

// shardFor places a node. Known regions go to their group's shard (groups
// round-robin over shards when there are more groups than shards); unknown
// regions hash to a group — their latency to everything is the model
// Default, which may be below the widened lookahead, in which case the
// cross-shard delay floor clips them (documented distortion, correctness
// unaffected).
func (p *regionPartition) shardFor(region Region, shards int) int32 {
	g, ok := p.groupOf[region]
	if !ok {
		g = int32(hashRegion(region) % uint64(p.groups))
	}
	return g % int32(shards)
}

func hashRegion(r Region) uint64 {
	h := fnv.New64a()
	h.Write([]byte(r))
	return h.Sum64()
}

// hashShard is the ID-hash placement for models without region data.
func hashShard(id NodeID, shards int) int32 {
	h := fnv.New64a()
	h.Write(id[:])
	return int32(h.Sum64() % uint64(shards))
}
