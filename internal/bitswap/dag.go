package bitswap

import (
	"bitswapmon/internal/cid"
	"bitswapmon/internal/merkledag"
	"bitswapmon/internal/otrace"
)

// FetchDAG retrieves the entire DAG rooted at root and calls done once with
// the outcome.
//
// The root block is retrieved with the full Fig. 1 strategy (broadcast, DHT
// fallback) — this is the request passive monitors can observe. Child blocks
// are requested only from the root's session peers, so they never reach
// monitors: "passive monitors will generally only detect requests for root
// hashes of a Merkle DAG" (Sec. IV-A).
//
// Under a sampled tc the root retrieval and every session-scoped child
// retrieval become bitswap.get spans; a zero tc traces nothing.
func (e *Engine) FetchDAG(tc otrace.Ctx, root cid.CID, done func(ok bool)) {
	var sess *Session
	sess = e.Get(tc, root, func(data []byte, ok bool) {
		if !ok {
			done(false)
			return
		}
		children, ok := linksOf(root, data)
		if !ok {
			done(false)
			return
		}
		s := sess
		if s == nil {
			// The root was served synchronously from the local store; the
			// children are expected there too.
			s = e.newSession(root)
		}
		e.fetchChildren(tc, s, children, done)
	})
}

// linksOf returns the links of block c: a DagProtobuf node's, decoded from
// data. A block of any other codec is a leaf. It reports false when a
// DagProtobuf block does not decode.
func linksOf(c cid.CID, data []byte) ([]merkledag.Link, bool) {
	if c.Codec() != cid.DagProtobuf {
		return nil, true
	}
	node, err := merkledag.DecodeNode(c.Codec(), data)
	if err != nil {
		return nil, false
	}
	return node.Links, true
}

// fetchChildren fetches each of a node's links via the session, walking on
// into each child.
func (e *Engine) fetchChildren(tc otrace.Ctx, sess *Session, links []merkledag.Link, done func(ok bool)) {
	if len(links) == 0 {
		done(true)
		return
	}
	remaining := len(links)
	failed := false
	complete := func(ok bool) {
		if !ok {
			failed = true
		}
		remaining--
		if remaining == 0 {
			done(!failed)
		}
	}
	for _, l := range links {
		link := l
		e.GetFromSession(tc, sess, link.CID, func(data []byte, ok bool) {
			if !ok {
				complete(false)
				return
			}
			childLinks, ok := linksOf(link.CID, data)
			if !ok {
				complete(false)
				return
			}
			e.fetchChildren(tc, sess, childLinks, complete)
		})
	}
}
