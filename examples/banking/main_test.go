package main

import "testing"

// TestRun runs the walkthrough end to end; run returns an error when an
// outcome differs from the one the walkthrough shows.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
