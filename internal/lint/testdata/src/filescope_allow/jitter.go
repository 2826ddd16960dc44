//ndnlint:allow globalrand — generated-style file: suppression is file-scoped above the package clause

// Package util exercises file-scoped suppression: the directive above
// the package clause waives globalrand for the whole file, so the
// process-global draws below stay silent.
package util

import "math/rand"

// Jitter would fire globalrand (top-level math/rand function) without
// the file-scoped directive.
func Jitter(n int) int {
	return rand.Intn(n)
}

// Scaled likewise.
func Scaled(n int) float64 {
	return float64(n) * rand.Float64()
}
