package netface

import "testing"

// PoisonChunks makes every face overwrite each receive chunk with 0xA5
// as it goes back to the reader, until the test ends.
func PoisonChunks(t testing.TB) {
	poisonChunks.Store(true)
	t.Cleanup(func() { poisonChunks.Store(false) })
}
