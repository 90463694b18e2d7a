package main

import (
	"errors"
	"math"
	"testing"

	"minesweeper/internal/fleet"
)

// FuzzClassSpec feeds arbitrary -class specs through the flag parser and
// fleet.Config.Validate. Any spec both accept must describe a class the
// fleet can run: positive finite weight, finite non-negative rates, and
// floors the host budget covers.
func FuzzClassSpec(f *testing.F) {
	for _, s := range []string{
		"gold:prio=0,weight=4,tenants=2,floor=1M,workload=cache",
		"batch:weight=1,tenants=4,workload=burst,lambda=2,burst=4",
		"x:weight=NaN,tenants=2,lambda=NaN",
		"x:weight=+Inf,burst=Inf",
		"x:tenants=17592186044416,floor=1M",
		"x:floor=9M",
		"x:prio=-1",
		"x:",
		":weight=1",
	} {
		f.Add(s)
	}
	const budget = 8 << 20
	f.Fuzz(func(t *testing.T, spec string) {
		var classes classList
		if err := classes.Set(spec); err != nil {
			return
		}
		if len(classes) != 1 {
			t.Fatalf("Set(%q) appended %d classes, want 1", spec, len(classes))
		}
		cfg := fleet.Config{HostBudget: budget, Classes: classes}
		if err := cfg.Validate(); err != nil {
			if !errors.Is(err, fleet.ErrBadConfig) {
				t.Fatalf("Validate(%q) = %v, does not wrap ErrBadConfig", spec, err)
			}
			return
		}
		cl := classes[0]
		if !(cl.Weight > 0) || math.IsInf(cl.Weight, 0) {
			t.Fatalf("accepted %q with weight %g", spec, cl.Weight)
		}
		for _, r := range []float64{cl.Lambda, cl.Burst} {
			if !(r >= 0) || math.IsInf(r, 0) {
				t.Fatalf("accepted %q with rate %g", spec, r)
			}
		}
		if cl.Tenants < 1 || (cl.Floor > 0 && uint64(cl.Tenants) > budget/cl.Floor) {
			t.Fatalf("accepted %q: %d tenants with floor %d exceed budget %d", spec, cl.Tenants, cl.Floor, budget)
		}
	})
}
