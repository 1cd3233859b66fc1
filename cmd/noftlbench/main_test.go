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

// TestMain lets the tests run the command itself: the test binary
// re-executes as noftlbench when the environment asks it to.
func TestMain(m *testing.M) {
	if os.Getenv("NOFTLBENCH_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// noftlbench runs the command in dir and returns its stdout, stderr and
// exit code.
func noftlbench(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "NOFTLBENCH_AS_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", "", 0
}

func TestUnknownExperimentIsUsageError(t *testing.T) {
	stdout, stderr, code := noftlbench(t, t.TempDir(), "-exp", "fig5")
	if code != 2 {
		t.Fatalf("exit code %d, want 2 (stdout %q, stderr %q)", code, stdout, stderr)
	}
	for _, name := range []string{"fig3", "fig4a", "fig4b", "headline", "latency", "validate",
		"delta", "regions", "sched", "htap", "qos", "serve", "ablations", "all"} {
		if !strings.Contains(stderr, name) {
			t.Errorf("usage error does not list %q: %q", name, stderr)
		}
	}
}

// TestArtifactFlagsNeedAKernelRun: an experiment without a kernel run
// loop cannot honor an artifact flag, so it must refuse instead of
// silently writing nothing.
func TestArtifactFlagsNeedAKernelRun(t *testing.T) {
	for _, exp := range []string{"fig3", "latency", "validate", "ablations", "all"} {
		dir := t.TempDir()
		_, stderr, code := noftlbench(t, dir, "-exp", exp, "-health-out", "h.json")
		if code != 2 || !strings.Contains(stderr, "-health-out") {
			t.Fatalf("-exp %s -health-out: exit %d, stderr %q; want exit 2 naming the flag", exp, code, stderr)
		}
		if _, err := os.Stat(filepath.Join(dir, "h.json")); err == nil {
			t.Fatalf("-exp %s wrote a health snapshot", exp)
		}
	}
}

// TestArtifactsOnEveryHarnessExperiment: the artifact flags export the
// last run of htap, qos and serve like they do for sched.
func TestArtifactsOnEveryHarnessExperiment(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		files []string
	}{
		{[]string{"-exp", "htap", "-htap-dies", "4", "-htap-mb", "24", "-htap-terminals", "4",
			"-htap-frames", "128", "-measure-s", "1", "-health-out", "h.json"}, []string{"h.json"}},
		{[]string{"-exp", "qos", "-qos-dies", "4", "-qos-mb", "24", "-workers", "4", "-measure-s", "1",
			"-health-out", "h.json"}, []string{"h.json"}},
		{[]string{"-exp", "serve", "-serve-dies", "4", "-serve-mb", "24", "-serve-clients", "40",
			"-serve-rows", "1024", "-serve-warm-ms", "200", "-serve-settle-ms", "200", "-measure-s", "1",
			"-health-out", "h.json", "-blame-out", "b.json"}, []string{"h.json", "b.json"}},
	} {
		dir := t.TempDir()
		stdout, stderr, code := noftlbench(t, dir, tc.args...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", tc.args, code, stderr)
		}
		for _, f := range tc.files {
			st, err := os.Stat(filepath.Join(dir, f))
			if err != nil || st.Size() == 0 {
				t.Fatalf("%v: %s not written (%v)\n%s", tc.args, f, err, stdout)
			}
			if !strings.Contains(stdout, "to "+f) {
				t.Fatalf("%v: no report line for %s:\n%s", tc.args, f, stdout)
			}
		}
	}
}
