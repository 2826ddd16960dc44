// Command ndnlint runs ndnprivacy's project-specific static analysis
// over the packages matching the given go-list patterns (default ./...):
// simulator determinism (no wall clock), no global math/rand,
// map-iteration order, wire-format error hygiene and seed flow. See
// internal/lint for the individual checks and the //ndnlint:allow
// suppression syntax.
//
// Usage:
//
//	ndnlint [-json] [-sarif] [-list] [-checks check[,check]] [packages...]
//
// Exit status is 0 when the tree is clean, 1 when findings were
// reported, and 2 when analysis itself failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ndnprivacy/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	flags := flag.NewFlagSet("ndnlint", flag.ContinueOnError)
	jsonOut := flags.Bool("json", false, "emit findings as a JSON array for tooling")
	sarifOut := flags.Bool("sarif", false, "emit findings as SARIF 2.1.0 for code scanning")
	list := flags.Bool("list", false, "list available checks and exit")
	var only string
	flags.StringVar(&only, "checks", "", "comma-separated checks to run (default: all)")
	flags.StringVar(&only, "c", "", "shorthand for -checks")
	if err := flags.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	checks := lint.All
	if only != "" {
		checks = nil
		for _, name := range strings.Split(only, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "ndnlint: unknown check %q (try -list)\n", name)
				return 2
			}
			checks = append(checks, a)
		}
	}

	pkgs, err := lint.Load("", flags.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ndnlint: %v\n", err)
		return 2
	}

	findings := lint.CheckAll(pkgs, checks)

	switch {
	case *sarifOut:
		if err := writeSARIF(stdout, checks, findings); err != nil {
			fmt.Fprintf(os.Stderr, "ndnlint: %v\n", err)
			return 2
		}
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{} // emit [] rather than null
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "ndnlint: %v\n", err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}

	if len(findings) > 0 {
		if !*jsonOut && !*sarifOut {
			fmt.Fprintf(os.Stderr, "ndnlint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		}
		return 1
	}
	return 0
}
