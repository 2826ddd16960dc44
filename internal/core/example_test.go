package core_test

import (
	"fmt"

	"ndnprivacy/internal/core"
)

// The Section VI analysis is pure: pick privacy parameters, get the
// scheme and its utility.
func ExampleUtility() {
	// Exponential-Random-Cache tuned to (k=5, ε=0.005, δ=0.05)-privacy.
	dist, err := core.NewGeometricForPrivacy(5, 0.005, 0.05)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("u(1000) = %.3f\n", core.Utility(dist, 1000))
	fmt.Printf("u(5000) = %.3f\n", core.Utility(dist, 5000))
	// Output:
	// u(1000) = 0.902
	// u(5000) = 0.980
}

// Theorem VI.1: Uniform-Random-Cache with domain K is (k, 0, 2k/K)-private.
func ExampleUniformPrivacy() {
	fmt.Println(core.UniformPrivacy(5, 200))
	// Output:
	// (k=5, ε=0, δ=0.05)-privacy
}
