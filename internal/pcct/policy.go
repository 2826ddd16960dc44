package pcct

// PolicyKind selects the CS facet's eviction policy. The policies are
// intrusive: LRU and FIFO thread one doubly-linked list through the
// entries' csPrev/csNext fields, and LFU adds pooled frequency buckets
// (the classic O(1) scheme, ties broken by least recency) — no
// container/list nodes, no per-operation allocation.
type PolicyKind uint8

// Eviction policies.
const (
	// PolicyLRU evicts the least-recently-used entry (the paper's
	// evaluation policy). Insert and access both move to front.
	PolicyLRU PolicyKind = iota
	// PolicyFIFO evicts in insertion order, ignoring accesses.
	PolicyFIFO
	// PolicyLFU evicts the least-frequently-used entry, breaking ties
	// by least recency within a frequency.
	PolicyLFU
)

// String names the policy as experiment output spells it.
func (k PolicyKind) String() string {
	switch k {
	case PolicyFIFO:
		return "fifo"
	case PolicyLFU:
		return "lfu"
	default:
		return "lru"
	}
}

// lfuBucket groups CS entries sharing one access frequency. Buckets
// form an ascending-frequency doubly-linked list; entries within a
// bucket form a recency list (head = most recent) threaded through
// csPrev/csNext.
type lfuBucket struct {
	freq       uint64
	head, tail int32 // entry list within the bucket
	prev, next int32 // bucket list, ascending frequency
}

// policyInsert notes a brand-new CS facet.
func (t *Table) policyInsert(e *Entry) {
	if t.kind == PolicyLFU {
		t.lfuInsert(e)
		return
	}
	t.listPushFront(e)
}

// CSRefresh notes a re-insert of existing content (payload refresh):
// LRU treats it as a touch, FIFO keeps the original position, LFU
// counts it as an access — exactly the semantics of the string-keyed
// policies this replaces.
func (t *Table) CSRefresh(e *Entry) {
	switch t.kind {
	case PolicyLRU:
		t.listMoveFront(e)
	case PolicyLFU:
		t.lfuAccess(e)
	}
}

// CSAccess notes a cache hit for recency/frequency purposes.
func (t *Table) CSAccess(e *Entry) {
	switch t.kind {
	case PolicyLRU:
		t.listMoveFront(e)
	case PolicyLFU:
		t.lfuAccess(e)
	}
}

// policyRemove unlinks a CS facet from its policy structure.
func (t *Table) policyRemove(e *Entry) {
	if t.kind == PolicyLFU {
		t.lfuRemove(e)
		return
	}
	t.listUnlink(e)
}

// CSVictim returns the entry the policy would evict next, nil when no
// CS facet exists.
func (t *Table) CSVictim() *Entry {
	if t.kind == PolicyLFU {
		if t.lfuHead == nilID {
			return nil
		}
		return t.at(t.lfu[t.lfuHead].tail)
	}
	if t.csTail == nilID {
		return nil
	}
	return t.at(t.csTail)
}

// --- LRU/FIFO recency list ---

func (t *Table) listPushFront(e *Entry) {
	e.csPrev = nilID
	e.csNext = t.csHead
	if t.csHead != nilID {
		t.at(t.csHead).csPrev = e.id
	}
	t.csHead = e.id
	if t.csTail == nilID {
		t.csTail = e.id
	}
}

func (t *Table) listUnlink(e *Entry) {
	if e.csPrev != nilID {
		t.at(e.csPrev).csNext = e.csNext
	} else {
		t.csHead = e.csNext
	}
	if e.csNext != nilID {
		t.at(e.csNext).csPrev = e.csPrev
	} else {
		t.csTail = e.csPrev
	}
	e.csPrev, e.csNext = nilID, nilID
}

// listMoveFront makes e the most recent entry: the LRU touch on every
// cache hit.
func (t *Table) listMoveFront(e *Entry) {
	if t.csHead == e.id {
		return
	}
	t.listUnlink(e)
	t.listPushFront(e)
}

// --- LFU frequency buckets ---

// lfuAllocBucket takes a bucket from the pool or extends it.
func (t *Table) lfuAllocBucket() int32 {
	if t.lfuFree != nilID {
		b := t.lfuFree
		t.lfuFree = t.lfu[b].next
		return b
	}
	t.lfu = append(t.lfu, lfuBucket{})
	return int32(len(t.lfu) - 1)
}

// lfuFreeBucket unlinks an empty bucket and returns it to the pool.
func (t *Table) lfuFreeBucket(b int32) {
	bk := &t.lfu[b]
	if bk.prev != nilID {
		t.lfu[bk.prev].next = bk.next
	} else {
		t.lfuHead = bk.next
	}
	if bk.next != nilID {
		t.lfu[bk.next].prev = bk.prev
	}
	bk.next = t.lfuFree
	t.lfuFree = b
}

// lfuPushFront places e at the recency front of bucket b.
func (t *Table) lfuPushFront(e *Entry, b int32) {
	bk := &t.lfu[b]
	e.lfuB = b
	e.csPrev = nilID
	e.csNext = bk.head
	if bk.head != nilID {
		t.at(bk.head).csPrev = e.id
	}
	bk.head = e.id
	if bk.tail == nilID {
		bk.tail = e.id
	}
}

// lfuUnlink removes e from its bucket's recency list, reporting whether
// the bucket is now empty.
func (t *Table) lfuUnlink(e *Entry) bool {
	bk := &t.lfu[e.lfuB]
	if e.csPrev != nilID {
		t.at(e.csPrev).csNext = e.csNext
	} else {
		bk.head = e.csNext
	}
	if e.csNext != nilID {
		t.at(e.csNext).csPrev = e.csPrev
	} else {
		bk.tail = e.csPrev
	}
	e.csPrev, e.csNext = nilID, nilID
	return bk.head == nilID
}

func (t *Table) lfuInsert(e *Entry) {
	// Frequency-1 bucket is the list head when it exists.
	b := t.lfuHead
	if b == nilID || t.lfu[b].freq != 1 {
		nb := t.lfuAllocBucket()
		t.lfu[nb] = lfuBucket{freq: 1, head: nilID, tail: nilID, prev: nilID, next: t.lfuHead}
		if t.lfuHead != nilID {
			t.lfu[t.lfuHead].prev = nb
		}
		t.lfuHead = nb
		b = nb
	}
	t.lfuPushFront(e, b)
}

func (t *Table) lfuAccess(e *Entry) {
	b := e.lfuB
	nextFreq := t.lfu[b].freq + 1
	nb := t.lfu[b].next
	if nb == nilID || t.lfu[nb].freq != nextFreq {
		// Insert a new bucket after b. Allocate first: the pool append
		// may move the bucket arena, so re-read b's fields after.
		fresh := t.lfuAllocBucket()
		after := t.lfu[b].next
		t.lfu[fresh] = lfuBucket{freq: nextFreq, head: nilID, tail: nilID, prev: b, next: after}
		if after != nilID {
			t.lfu[after].prev = fresh
		}
		t.lfu[b].next = fresh
		nb = fresh
	}
	empty := t.lfuUnlink(e)
	t.lfuPushFront(e, nb)
	if empty {
		t.lfuFreeBucket(b)
	}
}

func (t *Table) lfuRemove(e *Entry) {
	b := e.lfuB
	if t.lfuUnlink(e) {
		t.lfuFreeBucket(b)
	}
	e.lfuB = nilID
}
