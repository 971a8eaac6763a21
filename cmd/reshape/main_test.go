package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/trace"
)

// share is one interface's packet count and byte total.
type share struct{ packets, bytes int }

// runReshape runs the command's main on args with its standard output
// discarded, as `reshape args...` would.
func runReshape(t *testing.T, args ...string) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout, osArgs, flags := os.Stdout, os.Args, flag.CommandLine
	defer func() { os.Stdout, os.Args, flag.CommandLine = stdout, osArgs, flags }()
	os.Stdout = out
	os.Args = append([]string{"reshape"}, args...)
	flag.CommandLine = flag.NewFlagSet("reshape", flag.ExitOnError)
	main()
}

// TestStrategiesSplitFixedTrace pins, for every strategy, how many
// packets and bytes each per-interface trace the command writes holds,
// for a fixed generated BitTorrent trace.
func TestStrategiesSplitFixedTrace(t *testing.T) {
	in := filepath.Join(t.TempDir(), "bt.trace")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	tr := appgen.Generate(trace.BitTorrent, 20*time.Second, 5)
	if err := trace.WriteBinary(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	want := map[string][]share{
		"or":          {{642, 93875}, {154, 190934}, {663, 1038493}},
		"or-mod":      {{402, 308619}, {681, 760173}, {376, 254510}},
		"random":      {{477, 425522}, {488, 455403}, {494, 442377}},
		"round-robin": {{487, 430889}, {486, 461596}, {486, 430817}},
		"fh":          {{547, 510548}, {453, 411030}, {459, 401724}},
	}
	for strategy, shares := range want {
		t.Run(strategy, func(t *testing.T) {
			outdir := t.TempDir()
			runReshape(t, "-in", in, "-strategy", strategy, "-i", "3", "-seed", "9", "-outdir", outdir, "-summary=false")
			var got []share
			for i := 1; ; i++ {
				f, err := os.Open(filepath.Join(outdir, fmt.Sprintf("interface-%d.trace", i)))
				if os.IsNotExist(err) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				part, err := trace.ReadBinary(f)
				f.Close()
				if err != nil {
					t.Fatal(err)
				}
				s := share{packets: part.Len()}
				for _, p := range part.Packets {
					s.bytes += int(p.Size)
				}
				got = append(got, s)
			}
			if fmt.Sprint(got) != fmt.Sprint(shares) {
				t.Errorf("per-interface (packets bytes) = %v, want %v", got, shares)
			}
		})
	}
}
