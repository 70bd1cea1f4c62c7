package main

import "syscall"

// cpuSeconds is the process's user+system CPU time so far, GC and every
// other runtime thread included. getrusage makes the benchmark a Unix
// program; the lint loader reads every file of a package whatever its
// build constraints, so there is no stub for other systems beside it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
