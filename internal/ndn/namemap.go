package ndn

import "sort"

// NameMap maps names to values by hash and bytes: a name's hash picks its
// slot and a comparison of the names' bytes settles membership, so no
// lookup renders or copies a name, and a borrowed name may probe it. Names
// whose hashes collide chain off one slot. The map keeps the names it is
// given, so Put an owned name (see Clone). The zero value is an empty map
// ready for use; a NameMap is not safe for concurrent use.
type NameMap[V any] struct {
	slots map[uint64]nameSlot[V]
	n     int
}

// nameSlot is one entry, and the head of its hash's collision chain.
type nameSlot[V any] struct {
	name Name
	val  V
	next *nameSlot[V]
}

// Len returns the number of names in the map.
func (m *NameMap[V]) Len() int { return m.n }

// Get returns the value stored under name.
func (m *NameMap[V]) Get(name Name) (V, bool) {
	if s, ok := m.slots[name.Hash()]; ok {
		for p := &s; p != nil; p = p.next {
			if p.name.Equal(name) {
				return p.val, true
			}
		}
	}
	var zero V
	return zero, false
}

// GetPrefix returns the value stored under the first k components of of,
// given h, the hash of that prefix: a caller folding of's components one
// at a time (MixComponentHash) probes every prefix length without
// building a prefix name.
func (m *NameMap[V]) GetPrefix(h uint64, k int, of Name) (V, bool) {
	if s, ok := m.slots[h]; ok {
		for p := &s; p != nil; p = p.next {
			if p.name.Len() == k && p.name.IsPrefixOf(of) {
				return p.val, true
			}
		}
	}
	var zero V
	return zero, false
}

// Put stores v under name, replacing the value of a name already present.
func (m *NameMap[V]) Put(name Name, v V) {
	if m.slots == nil {
		m.slots = make(map[uint64]nameSlot[V])
	}
	h := name.Hash()
	head, ok := m.slots[h]
	switch {
	case !ok:
		m.slots[h] = nameSlot[V]{name: name, val: v}
	case head.name.Equal(name):
		head.val = v
		m.slots[h] = head
		return
	default:
		last := &head
		for p := head.next; p != nil; last, p = p, p.next {
			if p.name.Equal(name) {
				p.val = v
				return
			}
		}
		last.next = &nameSlot[V]{name: name, val: v}
		m.slots[h] = head
	}
	m.n++
}

// Delete removes name and returns the value it held.
func (m *NameMap[V]) Delete(name Name) (V, bool) {
	var zero V
	h := name.Hash()
	head, ok := m.slots[h]
	if !ok {
		return zero, false
	}
	if head.name.Equal(name) {
		if head.next == nil {
			delete(m.slots, h)
		} else {
			m.slots[h] = *head.next
		}
		m.n--
		return head.val, true
	}
	for prev := &head; prev.next != nil; prev = prev.next {
		if p := prev.next; p.name.Equal(name) {
			prev.next = p.next
			m.slots[h] = head
			m.n--
			return p.val, true
		}
	}
	return zero, false
}

// Range calls fn for every name and its value in hash order, and in
// insertion order along a collision chain, so a walk is the same on
// every run. fn may Put a new value under the name it is given.
func (m *NameMap[V]) Range(fn func(Name, V)) {
	hashes := make([]uint64, 0, len(m.slots))
	for h := range m.slots {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	for _, h := range hashes {
		head := m.slots[h]
		for p := &head; p != nil; p = p.next {
			fn(p.name, p.val)
		}
	}
}
