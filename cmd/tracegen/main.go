// Command tracegen synthesizes application packet traces calibrated
// to the paper's workload statistics and writes them in the binary or
// CSV trace format.
//
// Usage:
//
//	tracegen -app bittorrent -duration 60s -seed 7 -o bt.trace
//	tracegen -app browsing -format csv -o br.csv
//	tracegen -all -duration 300s -dir traces/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/trace"
)

func main() {
	app := flag.String("app", "bittorrent", "application: browsing, chatting, gaming, downloading, uploading, video, bittorrent")
	duration := flag.Duration("duration", 60_000_000_000, "trace duration")
	seed := flag.Uint64("seed", 1, "generator seed")
	out := flag.String("o", "", "output file (default stdout)")
	format := flag.String("format", "binary", "output format: binary or csv")
	all := flag.Bool("all", false, "generate every application into -dir")
	dir := flag.String("dir", ".", "output directory for -all")
	flag.Parse()

	enc, err := resolveFormat(*format)
	if err != nil {
		fatal(err)
	}

	if *all {
		for _, a := range trace.Apps {
			tr := appgen.Generate(a, *duration, *seed+uint64(a))
			name := filepath.Join(*dir, a.String()+enc.ext)
			if err := writeTrace(name, tr, enc.write); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s: %d packets, %d bytes of traffic\n", name, tr.Len(), tr.Bytes())
		}
		return
	}

	a, err := trace.ParseApp(*app)
	if err != nil {
		fatal(err)
	}
	tr := appgen.Generate(a, *duration, *seed)
	if *out == "" {
		if err := enc.write(os.Stdout, tr); err != nil {
			fatal(err)
		}
		return
	}
	if err := writeTrace(*out, tr, enc.write); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d packets over %v\n", *out, tr.Len(), tr.Duration())
}

// encoding is one -format value: the trace writer and the file
// extension -all gives its output.
type encoding struct {
	write func(io.Writer, *trace.Trace) error
	ext   string
}

// resolveFormat maps -format to its encoding. It runs before any file
// is created, so an unknown format leaves nothing behind.
func resolveFormat(format string) (encoding, error) {
	switch format {
	case "binary":
		return encoding{trace.WriteBinary, ".trace"}, nil
	case "csv":
		return encoding{trace.WriteCSV, ".csv"}, nil
	default:
		return encoding{}, fmt.Errorf("unknown format %q", format)
	}
}

func writeTrace(name string, tr *trace.Trace, write func(io.Writer, *trace.Trace) error) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := write(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
