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
		node, err := merkledag.DecodeNode(root.Codec(), data)
		if err != nil {
			done(false)
			return
		}
		s := sess
		if s == nil {
			// The root was served synchronously from the local store; the
			// children are expected there too.
			s = e.newSession(root)
		}
		e.fetchChildren(tc, s, node, done)
	})
}

// fetchChildren walks a decoded node's links, fetching each via the session.
func (e *Engine) fetchChildren(tc otrace.Ctx, sess *Session, node *merkledag.Node, done func(ok bool)) {
	if len(node.Links) == 0 {
		done(true)
		return
	}
	remaining := len(node.Links)
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
	for _, l := range node.Links {
		link := l
		e.GetFromSession(tc, sess, link.CID, func(data []byte, ok bool) {
			if !ok {
				complete(false)
				return
			}
			child, err := merkledag.DecodeNode(link.CID.Codec(), data)
			if err != nil {
				complete(false)
				return
			}
			e.fetchChildren(tc, sess, child, complete)
		})
	}
}
