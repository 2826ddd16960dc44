//go:build !race

package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// TestExperimentsDoc reruns every console block of EXPERIMENTS.md whose
// first line is an ndnsim command, and requires the rest of the block
// to be that command's output byte for byte. The documented scale takes
// minutes under the race detector, so race builds leave this test out
// and CI runs it in a step of its own.
func TestExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	const prompt = "$ go run ./cmd/ndnsim "
	lines := strings.Split(string(doc), "\n")
	blocks := 0
	for i := 0; i+1 < len(lines); i++ {
		if lines[i] != "```console" || !strings.HasPrefix(lines[i+1], prompt) {
			continue
		}
		args := strings.Fields(strings.TrimPrefix(lines[i+1], prompt))
		end := i + 2
		for end < len(lines) && lines[end] != "```" {
			end++
		}
		want := strings.Join(lines[i+2:end], "\n")
		i = end
		blocks++
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var out bytes.Buffer
			if err := run(args, &out, io.Discard); err != nil {
				t.Fatal(err)
			}
			if got := strings.TrimRight(out.String(), "\n"); got != want {
				t.Errorf("EXPERIMENTS.md block differs from ndnsim %s, which now prints:\n%s", strings.Join(args, " "), got)
			}
		})
	}
	if blocks == 0 {
		t.Fatal("EXPERIMENTS.md has no ndnsim console blocks")
	}
}
