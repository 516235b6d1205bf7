package main

import (
	"io"
	"testing"
)

// TestRun runs the example at its small size: a lost sentinel key after
// the grow and the shrink panics, so the test fails.
func TestRun(t *testing.T) { run(io.Discard, true) }
