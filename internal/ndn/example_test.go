package ndn_test

import (
	"fmt"

	"ndnprivacy/internal/ndn"
)

// Unpredictable names (Section V-A): both session parties derive the
// same per-frame name; nobody else can.
func ExampleSharedSecret() {
	alice, _ := ndn.NewSharedSecret([]byte("call-secret"))
	bob, _ := ndn.NewSharedSecret([]byte("call-secret"))
	base := ndn.MustParseName("/alice/voip")
	fmt.Println(alice.UnpredictableName(base, 7).Equal(bob.UnpredictableName(base, 7)))
	fmt.Println(alice.UnpredictableName(base, 7).Equal(alice.UnpredictableName(base, 8)))
	// Output:
	// true
	// false
}

// Names follow NDN's longest-prefix matching (Section II, footnote 2).
func ExampleName_IsPrefixOf() {
	interest := ndn.MustParseName("/cnn/news")
	content := ndn.MustParseName("/cnn/news/2013may20")
	fmt.Println(interest.IsPrefixOf(content))
	fmt.Println(content.IsPrefixOf(interest))
	// Output:
	// true
	// false
}
