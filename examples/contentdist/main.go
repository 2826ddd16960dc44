// Content distribution under Exponential-Random-Cache (Sections V-B and
// VI): a router serving a mixed public/private catalog runs Algorithm 1
// with a truncated-geometric threshold tuned to (k=5, ε=0.005)-privacy,
// and the example reports the resulting utility — how quickly popular
// private content starts enjoying cache hits — against the theorems'
// predictions.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"ndnprivacy/internal/core"
	"ndnprivacy/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "contentdist: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		k     = uint64(5)
		eps   = 0.005
		delta = 0.05
	)
	alpha, err := core.GeometricAlphaForEpsilon(k, eps)
	if err != nil {
		return err
	}
	dist, err := core.NewGeometricForPrivacy(k, eps, delta)
	if err != nil {
		return err
	}
	fmt.Printf("Exponential-Random-Cache: α = %.6f, %s\n", alpha, dist.Name())
	fmt.Printf("guarantee: %v\n\n", core.ExponentialPrivacy(k, dist.Alpha(), dist.DomainSize()))

	// Replay a content-distribution day through a bounded router cache.
	gen, err := trace.NewGenerator(trace.DefaultGeneratorConfig(11, 60000))
	if err != nil {
		return err
	}
	manager, err := core.NewRandomCache(dist, rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}
	stats, err := trace.Replay(gen, trace.ReplayConfig{
		CacheSize: 6000,
		Manager:   manager,
	})
	if err != nil {
		return err
	}
	baselineManager := core.NewNoPrivacy()
	baseline, err := trace.Replay(gen, trace.ReplayConfig{
		CacheSize: 6000,
		Manager:   baselineManager,
	})
	if err != nil {
		return err
	}

	fmt.Printf("trace: %d requests (%d to private content), cache 6000 objects, LRU\n",
		stats.Requests, stats.PrivateRequests)
	fmt.Printf("%-28s %10s %12s\n", "", "hit rate", "disguised")
	fmt.Printf("%-28s %9.2f%% %12d\n", "no privacy", baseline.HitRate(), baseline.DisguisedHits)
	fmt.Printf("%-28s %9.2f%% %12d\n", manager.Name(), stats.HitRate(), stats.GeneratedMisses)
	fmt.Println()

	// Theorem VI.4's prediction for private content utility.
	fmt.Println("utility u(c) for one private content after c requests (Theorem VI.4):")
	fmt.Printf("%8s %10s\n", "c", "u(c)")
	for _, c := range []uint64{1, 10, 100, 1000, 5000} {
		fmt.Printf("%8d %10.4f\n", c, core.Utility(dist, c))
	}
	fmt.Println("\nonly genuinely popular private content earns cache hits — exactly the")
	fmt.Println("popularity-based relaxation of Definition IV.3.")
	return nil
}
