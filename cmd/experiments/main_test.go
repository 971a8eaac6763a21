package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"trafficreshape/internal/trace"
)

// TestMain doubles as the experiments binary: re-running the test
// binary with EXPERIMENTS_TEST_MAIN set runs main on its arguments, so
// a test can check exit codes without building the command.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command on args and returns its standard error and
// exit error.
func runMain(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	return stderr.String(), err
}

// TestNegativeFleetCountsRejected: a negative -dist-workers or
// -dist-wait is a usage error (exit 2, a message naming the flags),
// not a makeslice panic while the fleet starts.
func TestNegativeFleetCountsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-journal", t.TempDir(), "-dist-workers", "-1", "-quick", "-run", "table1"},
		{"-dist-listen", "127.0.0.1:0", "-dist-workers", "-2", "-quick", "-run", "table1"},
		{"-dist-listen", "127.0.0.1:0", "-dist-wait", "-1", "-quick", "-run", "table1"},
	} {
		stderr, err := runMain(args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want status 2\nstderr: %s", args, err, stderr)
			continue
		}
		if !strings.Contains(stderr, "cannot be negative") {
			t.Errorf("%v: stderr %q does not say why", args, stderr)
		}
	}
}

// TestNonPositiveWindowRejected: -w 0 is a usage error (exit 2, a
// message naming the flag), not an integer-divide panic while a
// runner derives its window, and a negative -w fails the same way
// before any traffic is generated.
func TestNonPositiveWindowRejected(t *testing.T) {
	for _, w := range []string{"0", "-5s"} {
		args := []string{"-quick", "-run", "table2", "-w", w}
		stderr, err := runMain(args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want status 2\nstderr: %s", args, err, stderr)
			continue
		}
		if !strings.Contains(stderr, "-w") || !strings.Contains(stderr, "must be positive") {
			t.Errorf("%v: stderr %q does not say why", args, stderr)
		}
	}
}

// TestWindowWithoutRunRejected: the full registry builds its datasets
// at fixed windows, so an explicit -w without -run (or -dump-traces)
// is a usage error rather than a flag silently ignored — also when it
// names the default window.
func TestWindowWithoutRunRejected(t *testing.T) {
	for _, w := range []string{"60s", "5s"} {
		args := []string{"-quick", "-w", w}
		stderr, err := runMain(args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want status 2\nstderr: %s", args, err, stderr)
			continue
		}
		if !strings.Contains(stderr, "-w requires -run") {
			t.Errorf("%v: stderr %q does not say why", args, stderr)
		}
	}
}

// TestCapturedWithoutRunStartsNoFleet: -captured without -run is
// rejected before the traces are read or the fleet starts, so no
// worker process is spawned and the journal is never opened.
func TestCapturedWithoutRunStartsNoFleet(t *testing.T) {
	dir, journal := t.TempDir(), t.TempDir()
	f, err := os.Create(traceFile(dir, trace.Video, "test"))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(1)
	tr.Append(trace.Packet{Size: 100, App: trace.Video})
	if err := trace.WriteBinary(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	args := []string{"-quick", "-captured", dir, "-dist-workers", "2", "-journal", journal}
	stderr, err := runMain(args...)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("%v: exit %v, want status 2\nstderr: %s", args, err, stderr)
	}
	if !strings.Contains(stderr, "-captured requires -run") {
		t.Errorf("stderr %q does not say why", stderr)
	}
	if strings.Contains(stderr, "joined") {
		t.Errorf("a worker joined before the rejection:\n%s", stderr)
	}
	if _, err := os.Stat(filepath.Join(journal, "grid.journal")); !os.IsNotExist(err) {
		t.Errorf("the fleet's journal was opened before the rejection (stat: %v)", err)
	}
}
