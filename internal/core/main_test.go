package core

import (
	"fmt"
	"os"
	"testing"
)

// TestMain points the campaign cache at one temp dir per test binary, so
// the package's tests share campaigns within a run and write nothing
// outside it.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "clear-core-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Setenv("CLEAR_CACHE_DIR", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}
