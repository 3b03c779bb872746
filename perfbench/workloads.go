package main

// workloads are the benchmark's traffic mixes; NOTES.md records why
// each was chosen.
var workloads = []*workload{engineRuns, sweepGrid, httpMixed, fleetSweep}
