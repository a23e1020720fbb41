// Quickstart: build one workload from the suite, run it under LRU and
// CHiRP through the chirp.RunSuite entry point, and print the L2 TLB
// miss reduction — the paper's headline metric in a few lines of API.
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

	factories, err := chirp.Factories([]string{"lru", "chirp"})
	if err != nil {
		log.Fatal(err)
	}

	// One suite call over the workload is one job: with a stream cache
	// it captures the workload's L2 event stream once and replays it
	// per policy — bit-identical to a direct run, much cheaper from the
	// second policy on.
	rows, err := chirp.RunSuite(context.Background(), []*chirp.Workload{w}, factories,
		chirp.DefaultTLBOnlyConfig(2_000_000), chirp.SuiteOptions{StreamCache: chirp.NewStreamCache(0)})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload %s (%s)\n", w.Name, w.Category)
	base := rows[0].MPKI
	for _, res := range rows {
		reduction := 0.0
		if base > 0 {
			reduction = (base - res.MPKI) / base * 100
		}
		fmt.Printf("  %-6s  MPKI %.3f  (%+.1f%% vs %s)  TLB efficiency %.3f\n",
			res.Policy, res.MPKI, reduction, rows[0].Policy, res.Efficiency)
	}
}
