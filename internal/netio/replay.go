package netio

// sentChunk is one run of sent, unacknowledged stream bytes retained
// for replay, keyed by its logical stream offset. It keeps its pooled
// backing buffer alive until the receiver confirms delivery.
type sentChunk struct {
	off uint64
	c   outChunk
}

// replayQueue retains the unacknowledged tail of an outbound stream in
// send order, so a reconnect can replay whatever the receiver's RESUME
// offset says it is missing. It costs nothing while nothing fails: the
// entries live in a ring that is reused in place, and a sent chunk that
// fits the free tail of the newest retained buffer is folded into it
// (the way coalesce merges chunks before they are sent), so a producer
// of small writes facing a slow receiver pins about window/coalesceMax
// pooled buffers, not one per write.
type replayQueue struct {
	ring    []sentChunk // power-of-two capacity; grows by doubling, never shrinks
	head, n int
}

// at returns the k-th oldest retained entry, 0 <= k < n.
func (q *replayQueue) at(k int) *sentChunk {
	return &q.ring[(q.head+k)&(len(q.ring)-1)]
}

// push retains c, sent at stream offset off; frameMax caps an entry,
// because replay re-sends each entry as one frame. It reports whether
// c was folded into the newest entry: then the queue kept a copy, and
// c's buffer is the caller's to return once its send is done.
func (q *replayQueue) push(off uint64, c outChunk, frameMax int) (folded bool) {
	if q.n > 0 {
		if last := &q.at(q.n - 1).c; last.orig != nil && len(c.data) <= last.room(frameMax) {
			last.absorb(c)
			return true
		}
	}
	if q.n == len(q.ring) {
		grown := make([]sentChunk, max(4, 2*len(q.ring)))
		for k := 0; k < q.n; k++ {
			grown[k] = *q.at(k)
		}
		q.ring, q.head = grown, 0
	}
	q.n++
	*q.at(q.n - 1) = sentChunk{off: off, c: c}
	return false
}

// trim drops (or slices) entries the receiver has confirmed up to off.
// Fully confirmed entries return their pooled buffer; a partially
// confirmed one keeps its buffer (the remaining bytes may be replayed)
// and its headroom invariant (start only grows).
func (q *replayQueue) trim(off uint64) {
	for q.n > 0 {
		sc := q.at(0)
		if end := sc.off + uint64(len(sc.c.data)); end <= off {
			sc.c.release()
			q.head = (q.head + 1) & (len(q.ring) - 1)
			q.n--
			continue
		}
		if sc.off < off {
			delta := int(off - sc.off)
			sc.c.data = sc.c.data[delta:]
			sc.c.start += delta
			sc.off = off
		}
		return
	}
}

// drop abandons every retained byte (stream offsets rebase, e.g. after
// a MOVING fence, or a restart rewind in the RESUME exchange) and
// returns the pooled buffers.
//
// Compression audit: a rebase can land mid-chunk (trim slices a
// partially acked entry, leaving a remainder that may not be
// 8-aligned), but it can never land mid-BLOCK on the wire. DATA-C
// blocks are sealed per frame at write time (writeCompressed) and
// never retained: the queue holds logical bytes, and a replayed or
// sliced entry is re-trialed from scratch — a non-aligned remainder
// simply fails the n%8 gate in writeData and ships raw. The receiver
// therefore always decodes whole, freshly sealed blocks; resuming
// decode inside a previously sealed block is structurally impossible.
// TestRebaseMidChunkCompressedReplay pins this down.
func (q *replayQueue) drop() {
	for k := 0; k < q.n; k++ {
		q.at(k).c.release()
	}
	q.head, q.n = 0, 0
}
