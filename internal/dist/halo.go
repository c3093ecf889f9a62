package dist

import (
	"fmt"

	"petscfun3d/internal/mpi"
	"petscfun3d/internal/prof"
)

// Halo is the persistent exchange plan for one ghost scatter: for each
// peer, the indices to pack from the source vector, the indices to fill
// in the destination vector, and staging buffers allocated once at plan
// time (the solver's innermost loop must not allocate — the hotalloc
// analyzer enforces it for this package).
//
// Indices are block-row indices into whatever numbering the vectors
// use: dist.Matrix builds a halo over extended-local numbering, the
// distributed residual over global vertex numbering. A profiler is
// passed per call rather than stored, because each rank goroutine binds
// its own profiler after construction.
type Halo struct {
	comm *mpi.Comm
	b    int
	tag  mpi.Tag

	peers   []int     // sorted peer ranks
	sendIdx [][]int32 // per peer: block rows to pack from the source
	recvIdx [][]int32 // per peer: block rows to fill in the destination

	sendBuf  [][]float64    // per peer: persistent pack staging
	sendReq  []*mpi.Request // per peer: in-flight sends (nil when idle)
	recvReq  []*mpi.Request // per peer: in-flight receives
	recvData [][]float64    // per peer: payloads stashed between wait and unpack

	// inFlight guards the Start/Finish protocol: a second Start before
	// Finish would silently overwrite the in-flight requests, leaking
	// their progress goroutines and misaligning every later message on
	// the pair streams.
	inFlight bool
}

// newHalo builds the persistent plan from per-peer index lists.
// sendTo[q] lists the source block rows to ship to rank q; recvFrom[q]
// the destination block rows rank q fills here.
func newHalo(c *mpi.Comm, b int, tag mpi.Tag, sendTo, recvFrom map[int][]int32) *Halo {
	h := &Halo{comm: c, b: b, tag: tag}
	seen := map[int]bool{}
	for q := range sendTo {
		seen[q] = true
	}
	for q := range recvFrom {
		seen[q] = true
	}
	for q := 0; q < c.Size(); q++ {
		if !seen[q] {
			continue
		}
		h.peers = append(h.peers, q)                                     //lint:alloc-ok one-time plan construction
		h.sendIdx = append(h.sendIdx, sendTo[q])                         //lint:alloc-ok one-time plan construction
		h.recvIdx = append(h.recvIdx, recvFrom[q])                       //lint:alloc-ok one-time plan construction
		h.sendBuf = append(h.sendBuf, make([]float64, len(sendTo[q])*b)) //lint:alloc-ok persistent staging buffers allocated once at plan time
	}
	h.sendReq = make([]*mpi.Request, len(h.peers))
	h.recvReq = make([]*mpi.Request, len(h.peers))
	h.recvData = make([][]float64, len(h.peers))
	return h
}

// negotiateHalo exchanges need-lists over the communicator: needFrom[q]
// lists the global block rows this rank must receive from rank q. The
// return maps each peer to the global rows it asked this rank for, in
// the order it asked (which fixes the pack order on the wire). Every
// rank must call it collectively.
//
// Need *counts* are announced first with an AllGather, and only
// non-empty need-lists travel point-to-point afterwards: a rank with no
// boundary neighbors (a disconnected partition component) posts no
// sends at all, rather than spraying zero-length TagPlan messages at
// every other rank — messages the watchdog would count as fabric
// traffic.
func negotiateHalo(c *mpi.Comm, needFrom map[int][]int32) (map[int][]int32, error) {
	counts := make([]float64, c.Size())
	for q, req := range needFrom {
		if q < 0 || q >= c.Size() || q == c.Rank() {
			return nil, fmt.Errorf("dist: rank %d needs rows from invalid rank %d", c.Rank(), q)
		}
		counts[q] = float64(len(req))
	}
	all := c.AllGather(counts)
	for q := 0; q < c.Size(); q++ {
		req := needFrom[q]
		if len(req) == 0 {
			continue
		}
		enc := make([]float64, len(req)) //lint:alloc-ok one-time plan negotiation
		for i, g := range req {
			enc[i] = float64(g)
		}
		c.Send(q, mpi.TagPlan, enc)
	}
	asked := map[int][]int32{}
	for q := 0; q < c.Size(); q++ {
		if q == c.Rank() {
			continue
		}
		want := int(all[q][c.Rank()])
		if want == 0 {
			continue
		}
		enc, err := c.Recv(q, mpi.TagPlan)
		if err != nil {
			return nil, err
		}
		if len(enc) != want {
			return nil, fmt.Errorf("dist: rank %d announced %d needed rows but asked for %d", q, want, len(enc))
		}
		rows := make([]int32, len(enc)) //lint:alloc-ok one-time plan negotiation
		for i, f := range enc {
			rows[i] = int32(f)
		}
		asked[q] = rows
	}
	return asked, nil
}

// Start packs the boundary values out of x and posts the nonblocking
// exchange (receives first, then sends). Only local memory traffic and
// posting happen here — the time is the paper's scatter cost with the
// wait stripped out; the wait is measured separately in Finish. A
// second Start before Finish is a protocol error: the in-flight
// requests would be overwritten (leaked) and every later message on
// the pair streams would misalign.
func (h *Halo) Start(p *prof.Profiler, x []float64) error {
	if h.inFlight {
		return fmt.Errorf("dist: halo Start while a previous exchange is still in flight; Finish it first")
	}
	h.inFlight = true
	sp := p.Begin(prof.PhaseScatterPack)
	defer sp.End(0, h.haloPackBytes())
	b := h.b
	for pi, q := range h.peers {
		if len(h.recvIdx[pi]) > 0 {
			h.recvReq[pi] = h.comm.IRecv(q, h.tag)
		}
	}
	for pi, q := range h.peers {
		idx := h.sendIdx[pi]
		if len(idx) == 0 {
			continue
		}
		buf := h.sendBuf[pi]
		for i, li := range idx {
			copy(buf[i*b:(i+1)*b], x[int(li)*b:int(li)*b+b])
		}
		h.sendReq[pi] = h.comm.ISend(q, h.tag, buf)
	}
	return nil
}

// Finish blocks until the exchange posted by Start completes and
// unpacks the ghost values into x. The blocking is charged to
// scatter_wait — the measured implicit-synchronization sink — and the
// unpack to scatter_pack.
func (h *Halo) Finish(p *prof.Profiler, x []float64) error {
	if err := h.wait(p); err != nil {
		return err
	}
	sp := p.Begin(prof.PhaseScatterPack)
	defer sp.End(0, h.haloUnpackBytes())
	b := h.b
	for pi, q := range h.peers {
		idx := h.recvIdx[pi]
		if len(idx) == 0 {
			continue
		}
		buf := h.recvData[pi]
		h.recvData[pi] = nil
		if len(buf) != len(idx)*b {
			return fmt.Errorf("dist: halo from %d has %d values, want %d", q, len(buf), len(idx)*b)
		}
		for i, li := range idx {
			copy(x[int(li)*b:int(li)*b+b], buf[i*b:(i+1)*b])
		}
	}
	return nil
}

// wait drains every in-flight request, stashing receive payloads for
// the unpack. All requests are completed even on error, so the plan is
// reusable after a failed exchange surfaces.
func (h *Halo) wait(p *prof.Profiler) error {
	sp := p.Begin(prof.PhaseScatterWait)
	defer sp.End(0, h.haloWireBytes())
	h.inFlight = false
	var firstErr error
	for pi := range h.peers {
		if h.recvReq[pi] == nil {
			continue
		}
		data, err := h.recvReq[pi].Wait()
		h.recvReq[pi] = nil
		h.recvData[pi] = data
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for pi := range h.peers {
		if h.sendReq[pi] == nil {
			continue
		}
		if _, err := h.sendReq[pi].Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
		h.sendReq[pi] = nil
	}
	return firstErr
}

// Exchange runs the whole scatter blocking — pack, send, receive,
// unpack under one scatter span, with the implicit-synchronization wait
// folded in. This is the pre-overlap baseline the paper's Table 3
// analysis starts from; Matrix.NoOverlap selects it.
func (h *Halo) Exchange(p *prof.Profiler, x []float64) error {
	sp := p.Begin(prof.PhaseScatter)
	defer sp.End(0, h.haloWireBytes())
	b := h.b
	for pi, q := range h.peers {
		idx := h.sendIdx[pi]
		if len(idx) == 0 {
			continue
		}
		buf := h.sendBuf[pi]
		for i, li := range idx {
			copy(buf[i*b:(i+1)*b], x[int(li)*b:int(li)*b+b])
		}
		h.comm.Send(q, h.tag, buf)
	}
	for pi, q := range h.peers {
		idx := h.recvIdx[pi]
		if len(idx) == 0 {
			continue
		}
		buf, err := h.comm.Recv(q, h.tag)
		if err != nil {
			return err
		}
		if len(buf) != len(idx)*b {
			return fmt.Errorf("dist: halo from %d has %d values, want %d", q, len(buf), len(idx)*b)
		}
		for i, li := range idx {
			copy(x[int(li)*b:int(li)*b+b], buf[i*b:(i+1)*b])
		}
	}
	return nil
}
