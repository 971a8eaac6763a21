package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// runMain runs the command on args and returns its standard output,
// standard error and exit error.
func runMain(args ...string) (stdout []byte, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RESHAPED_TEST_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	err = cmd.Run()
	return out.Bytes(), errOut.String(), err
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
		{[]string{"-period", "16777217"}, "-period"},
		{[]string{"-ringcap", "16777217"}, "-ringcap"},
		{[]string{"-escalate-after", "4294967298"}, "-escalate-after"},
		{[]string{"-interfaces", "3", "-period", "2"}, "-period"},
		{[]string{"-watchdog", "-1s"}, "-watchdog"},
		{[]string{"-halt-after", "-1"}, "-halt-after"},
	} {
		args := append([]string{"-synth", "-duration", "3s"}, tc.args...)
		_, stderr, err := runMain(args...)
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
	if _, stderr, err := runMain(args...); err != nil {
		t.Fatalf("%v: %v\nstderr: %s", args, err, stderr)
	}
	if _, err := os.Stat(filepath.Join(ckpt, "reshaped.ckpt")); err != nil {
		t.Errorf("no checkpoint written: %v", err)
	}
}

// TestReportMatchesCommittedHash pins the -synth report bytes to the
// hashes committed under testdata. The ringcap-64 run evicts in five of
// its seven flows, so its windows are audited from a wrapped ring, and
// its flows escalate up to six interfaces. The 300 s runs reach the
// 16-interface ceiling: three flows by default, and three at ringcap
// 256, two of them over wrapped rings.
func TestReportMatchesCommittedHash(t *testing.T) {
	for _, tc := range []struct {
		hashFile string
		duration string
		args     []string
	}{
		{"synth30s.sha256", "30s", nil},
		{"synth30s-ringcap64.sha256", "30s", []string{"-ringcap", "64"}},
		{"synth300s.sha256", "300s", nil},
		{"synth300s-ringcap256.sha256", "300s", []string{"-ringcap", "256"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.hashFile))
		if err != nil {
			t.Fatal(err)
		}
		args := append([]string{"-synth", "-duration", tc.duration}, tc.args...)
		stdout, stderr, err := runMain(args...)
		if err != nil {
			t.Fatalf("%v: %v\nstderr: %s", args, err, stderr)
		}
		sum := sha256.Sum256(stdout)
		if got, want := hex.EncodeToString(sum[:]), strings.Fields(string(want))[0]; got != want {
			t.Errorf("%v: report sha256 %s, %s pins %s\nreport:\n%s", args, got, tc.hashFile, want, stdout)
		}
	}
}
