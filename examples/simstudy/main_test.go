package main

import (
	"io"
	"testing"
)

// TestRun runs the example at its small size, so it cannot rot.
func TestRun(t *testing.T) { run(io.Discard, true) }
