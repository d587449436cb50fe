// drbw-train collects the paper's 192-run micro-benchmark training set,
// fits the decision-tree classifier, and prints Table II, Table III and
// Figure 3. With -o the trained classifier is also saved for drbw-profile
// and drbw-analyze.
//
// Usage:
//
//	drbw-train [-quick] [-seed n] [-o model.json] [-metrics]
//
// Training-collection progress (N/M runs, elapsed, ETA) reports on stderr;
// -metrics appends a JSON metrics snapshot to the output. SIGQUIT dumps
// the flight recorder and all goroutine stacks.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"drbw"
	"drbw/internal/experiments"
	"drbw/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "quarter training set, reduced window")
	seed := flag.Uint64("seed", 1, "simulation seed")
	out := flag.String("o", "", "save the trained classifier to this path")
	cli := obs.NewCLI()
	flag.Parse()

	cli.Start()

	start := time.Now()
	fmt.Fprintf(os.Stderr, "collecting training runs (quick=%v)...\n", *quick)
	ctx, err := experiments.NewContext(*quick, *seed)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "collected in %.1fs\n\n", time.Since(start).Seconds())

	fmt.Println(ctx.TableII())
	body, _, err := ctx.TableIII()
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Println(body)
	fmt.Println(ctx.Fig3())
	fmt.Println(ctx.TableI())

	if *out != "" {
		// Retrain through the public API so the saved model records its
		// configuration; the simulation is deterministic, so the result
		// matches the context above.
		tool, err := drbw.Train(drbw.Config{Quick: *quick, Seed: *seed})
		if err != nil {
			cli.Fatal(err)
		}
		if err := tool.Save(*out); err != nil {
			cli.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "model saved to %s\n", *out)
	}

	cli.Finish()
}
