package main

// Example runs the example and pins its standard output.
func Example() {
	main()
	// Output:
	// partition 0: remote request 1 done in 5.526ms
	// partition 0: remote request 2 done in 5.526ms
	// partition 0: remote request 3 done in 5.526ms
	// partition 1: remote request 1 done in 5.526ms
	// partition 1: remote request 2 done in 5.526ms
	// partition 1: remote request 3 done in 5.526ms
	//
	// Remote requests pay ~RTT + tensor transfer over the local path;
	// the kernel-bypass gateway adds only µs of CPU (§5.1). Each MIG
	// partition runs its own dispatcher with full Paella semantics (§8).
}
