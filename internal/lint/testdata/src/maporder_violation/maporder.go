// Fixture: order-sensitive map iteration inside a deterministic
// package. Checked under the import path ndnprivacy/internal/fwd.
package fwd

import (
	"fmt"
	"sort"
)

// Sim is a stand-in scheduler; the check matches the method name.
type Sim struct{}

// Schedule queues an event.
func (s *Sim) Schedule(delay int, fn func()) { _ = delay; _ = fn }

// Collect appends in map order without a later sort: one finding.
func Collect(set map[string]int) []string {
	var keys []string
	for k := range set {
		keys = append(keys, k)
	}
	return keys
}

// Fire schedules events in map order: one finding.
func Fire(s *Sim, delays map[string]int) {
	for _, d := range delays {
		s.Schedule(d, func() {})
	}
}

// Dump writes report output in map order: one finding.
func Dump(hits map[string]int) {
	for name, n := range hits {
		fmt.Println(name, n)
	}
}

// CollectSortOther appends to s but sorts a different slice, keys,
// whose name merely contains "s": one finding.
func CollectSortOther(set map[string]int, keys []string) []string {
	var s []string
	for k := range set {
		s = append(s, k)
	}
	sort.Strings(keys)
	return s
}
