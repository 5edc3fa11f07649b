//go:build !unix

package main

import "time"

// Without getrusage cpu_ms_per_op reads 0; the benchmark's reference
// box is Linux.
func cpuTime() time.Duration { return 0 }
