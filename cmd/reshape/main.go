// Command reshape applies a reshaping scheduler to a packet trace and
// writes the per-interface sub-flows plus a feature summary — the
// offline analog of the MAC-layer data path of §III.
//
// Usage:
//
//	reshape -in bt.trace -strategy or -i 3 -outdir parts/
//	tracegen -app video | reshape -strategy or-mod -summary
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"trafficreshape"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

func main() {
	in := flag.String("in", "", "input trace (binary format; default stdin)")
	strategy := flag.String("strategy", "or", "scheduler: or, or-mod, random, round-robin, fh, adaptive")
	ifaces := flag.Int("i", 3, "number of virtual interfaces I")
	seed := flag.Uint64("seed", 1, "seed for randomized schedulers")
	outdir := flag.String("outdir", "", "write per-interface traces into this directory")
	summary := flag.Bool("summary", true, "print per-interface feature summary")
	flag.Parse()

	tr, err := readTrace(*in)
	if err != nil {
		fatal(err)
	}
	// NewReshaper reads 0 interfaces as its default of 3; here the
	// count is what the user typed, so it must be positive.
	if *ifaces < 1 {
		fatal(fmt.Errorf("-i must be at least 1, got %d", *ifaces))
	}
	r, err := trafficreshape.NewReshaper(trafficreshape.Strategy(*strategy),
		trafficreshape.Options{Interfaces: *ifaces, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	parts := r.Reshape(tr)

	if *summary {
		origDown, _ := tr.ByDirection()
		s := origDown.Summarize(5 * time.Second)
		fmt.Printf("original: %d packets, downlink avg size %.1f B, avg gap %.4f s\n",
			tr.Len(), s.AvgSize, s.AvgInterarrive)
		for i, p := range parts {
			down, _ := p.ByDirection()
			ps := down.Summarize(5 * time.Second)
			mean := stats.Mean(p.Sizes())
			fmt.Printf("interface %d: %d packets, mean size %.1f B, downlink avg size %.1f B, avg gap %.4f s\n",
				i+1, p.Len(), mean, ps.AvgSize, ps.AvgInterarrive)
		}
	}

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fatal(err)
		}
		for i, p := range parts {
			name := filepath.Join(*outdir, fmt.Sprintf("interface-%d.trace", i+1))
			f, err := os.Create(name)
			if err != nil {
				fatal(err)
			}
			if err := trace.WriteBinary(f, p); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", name)
		}
	}
}

func readTrace(name string) (*trace.Trace, error) {
	var r io.Reader = os.Stdin
	if name != "" {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return trace.ReadBinary(r)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reshape:", err)
	os.Exit(1)
}
