package ndn

import (
	"fmt"
	"math/rand"
	"testing"
)

// collide returns n with its hash replaced, so a test can put names of
// different bytes in one slot's chain.
func collide(n Name, h uint64) Name {
	n.hash = h
	return n
}

// TestNameMapAgainstMap drives random Put/Get/Delete against a map keyed
// by URI, with a quarter of the names forced onto one hash, so collision
// chains grow, shrink from the head and from the middle, and empty.
func TestNameMapAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := make([]Name, 64)
	for i := range names {
		names[i] = MustParseName(fmt.Sprintf("/m/%d/%d", i%5, i))
		if i%4 == 0 {
			names[i] = collide(names[i], 42)
		}
	}
	var m NameMap[int]
	ref := map[string]int{}
	for op := 0; op < 20000; op++ {
		n := names[rng.Intn(len(names))]
		switch rng.Intn(3) {
		case 0:
			m.Put(n, op)
			ref[n.String()] = op
		case 1:
			got, found := m.Get(n)
			want, wantFound := ref[n.String()]
			if got != want || found != wantFound {
				t.Fatalf("op %d: Get(%s) = %d, %t; want %d, %t", op, n, got, found, want, wantFound)
			}
		case 2:
			got, found := m.Delete(n)
			want, wantFound := ref[n.String()]
			if got != want || found != wantFound {
				t.Fatalf("op %d: Delete(%s) = %d, %t; want %d, %t", op, n, got, found, want, wantFound)
			}
			delete(ref, n.String())
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, m.Len(), len(ref))
		}
	}
	seen := 0
	m.Range(func(n Name, v int) {
		if want, found := ref[n.String()]; !found || want != v {
			t.Errorf("Range: %s = %d, reference %d (%t)", n, v, want, found)
		}
		seen++
	})
	if seen != len(ref) {
		t.Errorf("Range visited %d names, want %d", seen, len(ref))
	}
}

// GetPrefix finds a stored prefix of a longer name from the prefix's
// hash, which a caller folds component by component, and never mistakes
// a colliding name of another length or other bytes for it.
func TestNameMapGetPrefix(t *testing.T) {
	full := MustParseName("/a/b/c")
	var m NameMap[string]
	m.Put(MustParseName("/a/b"), "/a/b")
	m.Put(collide(MustParseName("/x/y"), full.Prefix(2).Hash()), "/x/y")
	m.Put(collide(MustParseName("/a"), full.Prefix(2).Hash()), "/a")
	h := NameHashSeed()
	it := full.Components()
	for k := 0; k <= full.Len(); k++ {
		got, found := m.GetPrefix(h, k, full)
		if want := k == 2; found != want || (found && got != "/a/b") {
			t.Errorf("GetPrefix(k=%d) = %q, %t", k, got, found)
		}
		if it.Next() {
			h = MixComponentHash(h, it.Component())
		}
	}
}

// Range walks in hash order and a collision chain in insertion order,
// whatever Go's map iteration does, and lets fn replace values.
func TestNameMapRangeOrder(t *testing.T) {
	var m NameMap[int]
	var want []string
	for i := 0; i < 8; i++ {
		n := collide(MustParseName(fmt.Sprintf("/r/%d", i)), uint64(10-i/3))
		m.Put(n, i)
	}
	for _, i := range []int{6, 7, 3, 4, 5, 0, 1, 2} {
		want = append(want, fmt.Sprintf("/r/%d", i))
	}
	for round := 0; round < 3; round++ {
		var got []string
		m.Range(func(n Name, v int) {
			got = append(got, n.String())
			m.Put(n, v+1)
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: Range order %v, want %v", round, got, want)
		}
	}
	if v, _ := m.Get(collide(MustParseName("/r/4"), 9)); v != 7 {
		t.Errorf("value after three Range rounds = %d, want 7", v)
	}
}
