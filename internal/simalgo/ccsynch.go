package simalgo

import "hybsync/internal/tilesim"

// CCSynch is Fatourou & Kallimanis's CC-Synch combining algorithm
// (PPoPP'12), the most efficient pure-shared-memory combiner the paper
// compares against (§3). Threads publish requests in a list built with a
// single SWAP on a shared tail pointer; the thread that finds its node's
// wait flag cleared with completed=false becomes the combiner and serves
// up to MaxOps requests, paying one RMR to read each request and another
// to release each waiting thread — the two per-CS stalls of Figure 1.
//
// Node layout (line-aligned so each node is a private spin target):
// word 0: wait flag, word 1: completed flag, word 2: opcode(+1),
// word 3: argument, word 4: return value, word 5: next node address.
type CCSynch struct {
	obj    Object
	tail   tilesim.Addr // word holding the current tail node address
	maxOps uint64

	rounds   uint64 // completed combining rounds
	combined uint64 // requests served by combiners, their own included
}

// CombiningStats implements Combiner (Figure 4b).
func (c *CCSynch) CombiningStats() (rounds, combined uint64) { return c.rounds, c.combined }

const (
	ccWait = iota
	ccCompleted
	ccOp
	ccArg
	ccRet
	ccNext
)

// NewCCSynch creates the combining structure. maxOps is the paper's
// MAX_OPS bound on requests one combiner may serve (default 200 in the
// evaluation).
func NewCCSynch(e *tilesim.Engine, obj Object, maxOps int) *CCSynch {
	c := &CCSynch{obj: obj, tail: e.AllocLine(1), maxOps: uint64(maxOps)}
	dummy := e.AllocLine(6)
	// Initial dummy: wait=0, completed=0 — the first thread to enqueue
	// behind it becomes the combiner.
	poke(e, c.tail, uint64(dummy))
	return c
}

// Handle implements Executor.
func (c *CCSynch) Handle(p *tilesim.Proc) Handle {
	return &ccSynchHandle{c: c, p: p, node: p.Alloc(6)}
}

type ccSynchHandle struct {
	c    *CCSynch
	p    *tilesim.Proc
	node tilesim.Addr // thread-local spare node (threadLocal.node)
}

// Apply executes op in mutual exclusion following the CC-Synch protocol.
func (h *ccSynchHandle) Apply(op, arg uint64) uint64 {
	p, c := h.p, h.c

	// Prepare the node we hand to our successor.
	next := h.node
	p.Write(next+ccWait, 1)
	p.Write(next+ccCompleted, 0)
	p.Write(next+ccNext, 0)

	// Announce: swap our spare node in as the new tail; the old tail is
	// where we publish our own request.
	cur := tilesim.Addr(p.Swap(c.tail, uint64(next)))
	p.Write(cur+ccOp, op+1)
	p.Write(cur+ccArg, arg)
	p.Write(cur+ccNext, uint64(next))
	h.node = cur

	// Local spin until a combiner clears our wait flag.
	p.SpinWhile(cur+ccWait, func(v uint64) bool { return v != 0 })
	if p.Read(cur+ccCompleted) != 0 {
		return p.Read(cur + ccRet)
	}

	// We are the combiner: serve the chain starting at our own node.
	tmp := cur
	var count uint64
	var myRet uint64
	for count < c.maxOps {
		nx := tilesim.Addr(p.Read(tmp + ccNext)) // RMR: requester wrote it
		if nx == 0 {
			break
		}
		count++
		o := p.Read(tmp + ccOp)
		a := p.Read(tmp + ccArg)
		// Overlap the successor node's fill with this CS execution.
		p.Prefetch(nx + ccNext)
		ret := c.obj.Exec(p, o-1, a)
		if tmp == cur {
			myRet = ret
		} else {
			// One line transaction publishes the result and releases the
			// waiting thread (the combiner's second RMR per CS).
			p.WriteBurst(
				tilesim.WordWrite{A: tmp + ccRet, V: ret},
				tilesim.WordWrite{A: tmp + ccCompleted, V: 1},
				tilesim.WordWrite{A: tmp + ccWait, V: 0},
			)
		}
		tmp = nx
	}
	// Hand the combiner role to the thread owning tmp (completed stays 0).
	p.Write(tmp+ccWait, 0)
	c.rounds++
	c.combined += count
	return myRet
}
