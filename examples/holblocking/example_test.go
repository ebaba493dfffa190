package main

// Example runs the example and pins its standard output.
func Example() {
	main()
	// Output:
	// workload: 8 kernels/job × 300.000µs each; device fits 176 concurrently
	//
	// submission method        goodput(req/s)      p99 JCT
	// job-by-job (hardware)           15120.7     50.523ms
	// Paella dispatching              19956.5      2.539ms
	//
	// Everything is identical except *when* kernels enter the hardware
	// queues: informed dispatch roughly doubles goodput (paper Figure 2).
}
