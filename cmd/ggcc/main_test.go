package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for ggcc: with GGCC_TEST_MAIN
// set it runs main on its arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("GGCC_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ggcc runs the test binary as ggcc and returns its stdout and stderr.
func ggcc(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GGCC_TEST_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("ggcc %s: %v\n%s", strings.Join(args, " "), err, errOut.String())
	}
	return out.String(), errOut.String()
}

// TestRunProfileEveryTarget: -run -profile executes through the
// instrumented machine on every target, so the report has the assemble
// and execute spans and the simulator profile, whichever machine ran.
func TestRunProfileEveryTarget(t *testing.T) {
	src := filepath.Join(t.TempDir(), "fib.c")
	prog := "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\n" +
		"int main() { return fib(10); }\n"
	if err := os.WriteFile(src, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"vax", "risc"} {
		t.Run(target, func(t *testing.T) {
			stdout, report := ggcc(t, "-target", target, "-run", "-profile", src)
			if !strings.HasPrefix(stdout, "main() = 55 (") {
				t.Errorf("stdout = %q, want main() = 55", stdout)
			}
			for _, want := range []string{
				"\n  assemble ", "\n  execute ", "asm.instructions",
				"simulator profile", "opcode frequency:", "addressing mode frequency",
				"per-function instruction counts:", "_fib",
			} {
				if !strings.Contains(report, want) {
					t.Errorf("-profile report lacks %q:\n%s", want, report)
				}
			}
		})
	}
}
