package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
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

// TestNegativeFleetCountsRejected: a negative -dist-workers or
// -dist-wait is a usage error (exit 2, a message naming the flags),
// not a makeslice panic while the fleet starts.
func TestNegativeFleetCountsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-journal", t.TempDir(), "-dist-workers", "-1", "-quick", "-run", "table1"},
		{"-dist-listen", "127.0.0.1:0", "-dist-workers", "-2", "-quick", "-run", "table1"},
		{"-dist-listen", "127.0.0.1:0", "-dist-wait", "-1", "-quick", "-run", "table1"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want status 2\nstderr: %s", args, err, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), "cannot be negative") {
			t.Errorf("%v: stderr %q does not say why", args, stderr.String())
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
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want status 2\nstderr: %s", args, err, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), "-w") || !strings.Contains(stderr.String(), "must be positive") {
			t.Errorf("%v: stderr %q does not say why", args, stderr.String())
		}
	}
}
