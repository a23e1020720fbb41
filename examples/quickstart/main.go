// Quickstart: build one workload from the suite, run it under LRU and
// CHiRP through the chirp.Run entry point, and print the L2 TLB miss
// reduction — the paper's headline metric in a few lines of API.
package main

import (
	"context"
	"fmt"
	"log"

	chirp "github.com/chirplab/chirp"
)

func main() {
	// Pick a pressure-profile workload: a database engine whose OLTP
	// working set sits near the L2 TLB's reach while analytic scans
	// pollute it — the access pattern the paper's §III motivates.
	w := chirp.WorkloadByName("db-003")
	if w == nil {
		log.Fatal("workload not found")
	}

	// A stream cache makes the policy comparison capture the workload's
	// L2 event stream once and replay it per policy — bit-identical to
	// a direct run, much cheaper from the second policy on.
	cache := chirp.NewStreamCache(0)
	defer cache.Close()

	factories, err := chirp.Factories([]string{"lru", "chirp"})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload %s (%s)\n", w.Name, w.Category)
	var base float64
	for i, f := range factories {
		res, err := chirp.Run(context.Background(), chirp.RunSpec{
			Workload: w,
			Policy:   f.New,
			Config:   chirp.DefaultTLBOnlyConfig(2_000_000),
			Cache:    cache,
		})
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			base = res.MPKI
		}
		reduction := 0.0
		if base > 0 {
			reduction = (base - res.MPKI) / base * 100
		}
		fmt.Printf("  %-6s  MPKI %.3f  (%+.1f%% vs %s)  TLB efficiency %.3f\n",
			f.Name, res.MPKI, reduction, factories[0].Name, res.Efficiency)
	}
}
