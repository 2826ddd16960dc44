package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// The sha256 of `ndnsim -fig all -seed 1 -objects 40 -runs 2 -requests
// 20000`, as text and with -json: every entry of experiments.Table, at a
// scale the race detector runs in seconds. Together they are the
// byte-identity gate for the whole evaluation.
const (
	wholePaperText = "c94b61d45a7ab7a8afb6c3724e71fc928e336d724824b62e8d8b9d54e07df77a"
	wholePaperJSON = "c1b3004ad18d5d31c74bb312c63b3337873b8062821665cbf338d34ceffc98cf"
)

func TestWholePaperGolden(t *testing.T) {
	ndnsim := func(extra ...string) []byte {
		args := append([]string{"-fig", "all", "-seed", "1", "-objects", "40", "-runs", "2", "-requests", "20000"}, extra...)
		var out bytes.Buffer
		if err := run(args, &out, io.Discard); err != nil {
			t.Fatalf("ndnsim %v: %v", args, err)
		}
		return out.Bytes()
	}
	check := func(what string, out []byte, want string) {
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s sha256 = %s, want %s", what, got, want)
		}
	}
	check("text", ndnsim("-parallel", "3"), wholePaperText)
	serial, parallel := ndnsim("-json", "-parallel", "1"), ndnsim("-json", "-parallel", "3")
	if !bytes.Equal(serial, parallel) {
		t.Error("-json output differs between -parallel 1 and 3")
	}
	check("-json", serial, wholePaperJSON)
}
