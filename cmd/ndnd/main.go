// Command ndnd is a small NDN forwarding daemon: the library's Content
// Store, PIT, FIB and privacy-preserving cache management running over
// real TCP connections. It exists to show the stack is a usable network
// component, not only a simulator substrate.
//
// Usage:
//
//	ndnd -listen :6363 [-capacity 4096] [-manager none|delay|random]
//	     [-route /prefix=host:port ...] [-k 5] [-eps 0.005]
//	     [-tier-dir DIR] [-tier-capacity N]
//
// Each -route dials the given upstream and installs a FIB entry for the
// prefix. Consumers connect to the listen address; their interests are
// answered from the cache (subject to the selected privacy policy) or
// forwarded along routes.
//
// With -tier-dir the Content Store gains a second tier: -capacity bounds
// the RAM front (exactly: the front is one table, not shards) and
// objects it needs to push out demote to an append-log file store under
// DIR (crash-tolerant: a torn tail is truncated on
// reopen). -tier-capacity bounds the disk tier's object count
// (0 = unlimited). Serving from the disk tier costs a real file read,
// so a tiered daemon exhibits the three-way RAM-hit/disk-hit/miss
// timing channel the simulator experiments measure.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ndnprivacy/internal/daemon"
	"ndnprivacy/internal/ndn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ndnd: %v\n", err)
		os.Exit(1)
	}
}

// routeFlags accumulates repeated -route prefix=addr flags.
type routeFlags []daemon.Route

func (r *routeFlags) String() string {
	parts := make([]string, 0, len(*r))
	for _, route := range *r {
		parts = append(parts, route.Prefix.String()+"="+route.Addr)
	}
	return strings.Join(parts, ",")
}

func (r *routeFlags) Set(value string) error {
	prefixStr, addr, found := strings.Cut(value, "=")
	if !found {
		return fmt.Errorf("route %q must be /prefix=host:port", value)
	}
	prefix, err := ndn.ParseName(prefixStr)
	if err != nil {
		return err
	}
	*r = append(*r, daemon.Route{Prefix: prefix, Addr: addr})
	return nil
}

func run() error {
	var cfg daemon.Config
	flag.StringVar(&cfg.Listen, "listen", ":6363", "TCP listen address")
	flag.IntVar(&cfg.Capacity, "capacity", 4096, "content store capacity (0 = unlimited; RAM-front size with -tier-dir)")
	flag.StringVar(&cfg.Manager, "manager", "delay", "cache privacy policy: none, delay, random")
	flag.Uint64Var(&cfg.K, "k", 5, "popularity threshold k for -manager random")
	flag.Float64Var(&cfg.Eps, "eps", 0.005, "privacy parameter ε for -manager random")
	flag.StringVar(&cfg.TierDir, "tier-dir", "", "give the store a file-backed second tier logging under this directory: objects -capacity pushes out of RAM demote to it instead of leaving the cache (empty = no second tier)")
	flag.IntVar(&cfg.TierCapacity, "tier-capacity", 0, "disk-tier object bound with -tier-dir (0 = unlimited)")
	flag.Var((*routeFlags)(&cfg.Routes), "route", "upstream route /prefix=host:port (repeatable)")
	flag.Parse()

	d, err := daemon.Start(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("ndnd: listening on %s (capacity %d, manager %s)\n",
		d.Addr(), cfg.Capacity, cfg.Manager)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("ndnd: shutting down")
	return d.Close()
}
