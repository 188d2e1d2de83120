package resilient

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"testing"
	"time"
)

func TestSafeRecoversPanic(t *testing.T) {
	_, err := Safe(func() (int, error) {
		panic("boom")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "boom" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "resilient_test.go") {
		t.Fatalf("stack does not point at the panic site:\n%s", pe.Stack)
	}
	if StackOf(err) == "" {
		t.Fatal("StackOf returned empty for a panic error")
	}
}

func TestSafePassesThrough(t *testing.T) {
	v, err := Safe(func() (int, error) { return 42, nil })
	if v != 42 || err != nil {
		t.Fatalf("got (%d, %v)", v, err)
	}
	want := errors.New("plain")
	_, err = Safe(func() (int, error) { return 0, want })
	if err != want {
		t.Fatalf("err = %v, want pass-through", err)
	}
}

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		kind string
	}{
		{nil, ""},
		{&PanicError{Value: "x"}, "panic"},
		{&TimeoutError{After: "1s"}, "timeout"},
		{fmt.Errorf("wrapped: %w", &TimeoutError{After: "2s"}), "timeout"},
		{fmt.Errorf("wrapped: %w", &PanicError{Value: "y"}), "panic"},
		{&fs.PathError{Op: "open", Path: "f", Err: errors.New("io")}, "error"},
		{errors.New("deterministic eval error"), "error"},
		{context.Canceled, "error"},
	}
	for _, tc := range cases {
		if got := KindOf(tc.err); got != tc.kind {
			t.Errorf("KindOf(%v) = %q, want %q", tc.err, got, tc.kind)
		}
	}
}

func TestWithWatchdogTimesOut(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	start := time.Now()
	_, err := WithWatchdog(20*time.Millisecond, func() (int, error) {
		<-release // hung evaluation
		return 1, nil
	})
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("watchdog took %s to trip", elapsed)
	}
}

func TestWithWatchdogCompletes(t *testing.T) {
	v, err := WithWatchdog(time.Minute, func() (string, error) { return "ok", nil })
	if v != "ok" || err != nil {
		t.Fatalf("got (%q, %v)", v, err)
	}
	// Disabled deadline still isolates panics.
	_, err = WithWatchdog(0, func() (string, error) { panic("inline") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}
