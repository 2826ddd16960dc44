package main

import "testing"

func TestRouteFlagsParsing(t *testing.T) {
	var r routeFlags
	if err := r.Set("/p=127.0.0.1:6363"); err != nil {
		t.Fatal(err)
	}
	if err := r.Set("/cnn/news=upstream:1234"); err != nil {
		t.Fatal(err)
	}
	if len(r) != 2 {
		t.Fatalf("routes = %d", len(r))
	}
	if r[0].Prefix.String() != "/p" || r[0].Addr != "127.0.0.1:6363" {
		t.Errorf("route 0 = %+v", r[0])
	}
	if got := r.String(); got != "/p=127.0.0.1:6363,/cnn/news=upstream:1234" {
		t.Errorf("String() = %q", got)
	}
}

func TestRouteFlagsRejectsMalformed(t *testing.T) {
	var r routeFlags
	for _, bad := range []string{"no-equals", "not-a-prefix=host:1", "=host:1"} {
		if err := r.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}
