package attack_test

import (
	"fmt"

	"ndnprivacy/internal/attack"
)

// The Section III amplification: a weak per-segment probe becomes
// near-certain across an 8-segment content object.
func ExampleSegmentSuccessProbability() {
	for _, n := range []int{1, 2, 4, 8} {
		fmt.Printf("n=%d: %.4f\n", n, attack.SegmentSuccessProbability(0.59, n))
	}
	// Output:
	// n=1: 0.5900
	// n=2: 0.8319
	// n=4: 0.9717
	// n=8: 0.9992
}
