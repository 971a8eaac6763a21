package main

// Running every workload: each in a child process of this binary, so a
// workload's heap, goroutines and peak RSS never leak into the next,
// and a crash is one failed workload rather than a lost run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAll runs every workload untraced and, with o.traced, again traced.
// It reports whether every run completed with all outputs correct.
func runAll(o options, out string) bool {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	passes := []bool{false}
	if o.traced {
		passes = append(passes, true)
	}
	ok := true
	var recs []*record
	for _, traced := range passes {
		for _, w := range workloads {
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
			if traced {
				args = append(args, "-trace", "1")
			}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(exe, args...)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			human, rec := lastLines(stdout.String())
			fmt.Println(human)
			if rec == nil {
				// A crashed child is one failed op.
				fmt.Printf("  FAIL %s: no result (%v)\n", w.name, runErr)
				rec = &record{Workload: w.name, Seed: o.seed, Traced: traced, Smoke: o.smoke,
					result: result{Attempted: 1, Failed: 1}}
			}
			if !rec.Correct || rec.Failed > 0 {
				ok = false
			}
			recs = append(recs, rec)
		}
	}
	if out != "" {
		if err := writeRecords(out, recs); err != nil {
			fatal(err)
		}
	}
	return ok
}

// lastLines splits a child's output into its human-readable part and
// its record line.
func lastLines(stdout string) (human string, rec *record) {
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	var keep []string
	for _, l := range lines {
		if strings.HasPrefix(l, "record ") {
			var r record
			if json.Unmarshal([]byte(strings.TrimPrefix(l, "record ")), &r) == nil {
				rec = &r
			}
			break
		}
		keep = append(keep, l)
	}
	return strings.Join(keep, "\n"), rec
}
