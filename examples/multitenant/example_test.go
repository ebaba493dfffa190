package main

// Example runs the example and pins its standard output.
func Example() {
	main()
	// Output:
	// short job: 8 kernels, long job: 40 kernels
	//
	//  threshold     short mean JCT      long mean JCT
	//        500           15.284ms           28.108ms
	//        100           18.042ms           24.215ms
	//          0           19.551ms           22.425ms
	//
	// Lower thresholds trigger the deficit override earlier: long jobs
	// speed up at the short jobs' expense (paper Figure 13).
}
