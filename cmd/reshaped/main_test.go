package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as the reshaped binary: re-running the test binary
// with RESHAPED_TEST_MAIN set runs main on its arguments, so a test
// can check exit codes without building the command.
func TestMain(m *testing.M) {
	if os.Getenv("RESHAPED_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command on args and returns its standard error and
// exit error.
func runMain(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RESHAPED_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	return stderr.String(), err
}

// TestFlagValuesRejected: a flag value the engine would silently
// replace or ignore is a usage error (exit 2, a message naming the
// flag) raised before the classifier trains or the capture is read.
// A disabled checkpoint schedule must not leave the run without the
// checkpoint directory it asked for.
func TestFlagValuesRejected(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ck")
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-checkpoint", ckpt, "-checkpoint-every", "0"}, "-checkpoint-every"},
		{[]string{"-checkpoint", ckpt, "-checkpoint-every", "-5"}, "-checkpoint-every"},
		{[]string{"-shards", "-2"}, "-shards"},
		{[]string{"-interfaces", "0"}, "-interfaces"},
		{[]string{"-interfaces", "17"}, "-interfaces"},
		{[]string{"-window", "0"}, "-window"},
		{[]string{"-window", "-1s"}, "-window"},
		{[]string{"-period", "0"}, "-period"},
		{[]string{"-ringcap", "-1"}, "-ringcap"},
		{[]string{"-queue-depth", "0"}, "-queue-depth"},
		{[]string{"-escalate-after", "0"}, "-escalate-after"},
	} {
		args := append([]string{"-synth", "-duration", "3s"}, tc.args...)
		stderr, err := runMain(args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want status 2\nstderr: %s", tc.args, err, stderr)
			continue
		}
		if !strings.Contains(stderr, tc.flag) {
			t.Errorf("%v: stderr %q does not name %s", tc.args, stderr, tc.flag)
		}
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("rejected run touched the checkpoint directory: %v", err)
	}
}

// TestFlagBoundsAccepted: the edges of the accepted ranges run to a
// report, with a checkpoint written where one was asked for.
func TestFlagBoundsAccepted(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ck")
	args := []string{"-synth", "-duration", "3s", "-audit=false",
		"-interfaces", "16", "-shards", "0", "-checkpoint", ckpt, "-checkpoint-every", "1000"}
	if stderr, err := runMain(args...); err != nil {
		t.Fatalf("%v: %v\nstderr: %s", args, err, stderr)
	}
	if _, err := os.Stat(filepath.Join(ckpt, "reshaped.ckpt")); err != nil {
		t.Errorf("no checkpoint written: %v", err)
	}
}
