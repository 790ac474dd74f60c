package main

import (
	"strings"
	"testing"

	"proxygraph/internal/cliutil"
	"proxygraph/internal/partition"
)

func TestSelectExperimentsAll(t *testing.T) {
	exps := experiments()
	got, err := selectExperiments("all", exps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(exps) {
		t.Fatalf("selected %d of %d experiments", len(got), len(exps))
	}
	for i, e := range exps {
		if got[i] != e.name {
			t.Fatalf("catalog order lost at %d: %q != %q", i, got[i], e.name)
		}
	}
}

func TestSelectExperimentsList(t *testing.T) {
	got, err := selectExperiments(" fig4 , recovery ", experiments())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "fig4" || got[1] != "recovery" {
		t.Fatalf("selected %v", got)
	}
}

func TestSelectExperimentsUnknown(t *testing.T) {
	_, err := selectExperiments("fig4,nonsense", experiments())
	if err == nil {
		t.Fatal("unknown experiment must be rejected")
	}
	if !strings.Contains(err.Error(), `"nonsense"`) || !strings.Contains(err.Error(), "known:") {
		t.Fatalf("error should name the bad experiment and list known ones: %v", err)
	}
}

// TestIngressShardsRejectsNegative pins the -ingress-shards check: a negative
// count is a usage error, not an alias for GOMAXPROCS, and leaves the ingress
// worker count untouched.
func TestIngressShardsRejectsNegative(t *testing.T) {
	prev := partition.ParallelShards
	for _, n := range []int{-1, -3} {
		err := cliutil.SetIngressShards(n)
		if err == nil {
			t.Fatalf("-ingress-shards %d: expected an error", n)
		}
		if !strings.Contains(err.Error(), "-ingress-shards") || !strings.Contains(err.Error(), "non-negative") {
			t.Fatalf("-ingress-shards %d: error %q does not name the flag and its rule", n, err)
		}
		if partition.ParallelShards != prev {
			t.Fatalf("-ingress-shards %d: worker count changed to %d", n, partition.ParallelShards)
		}
	}
}

// TestCatalogHasUniqueNames guards against two experiments shadowing each
// other in the -exp lookup map.
func TestCatalogHasUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments() {
		if seen[e.name] {
			t.Errorf("duplicate experiment name %q", e.name)
		}
		seen[e.name] = true
		if e.desc == "" {
			t.Errorf("experiment %q has no description", e.name)
		}
		if e.run == nil {
			t.Errorf("experiment %q has no run function", e.name)
		}
	}
}
