package main

// Example runs the example and pins its standard output.
func Example() {
	main()
	// Output:
	// branchy request done in 333.881µs
	// branchy request done in 333.881µs
	// branchy request done in 333.881µs
	//
	// Serial kernel time is 500µs (200+200+100); with the two branches
	// overlapped the request completes in ≈300µs + copy + overheads —
	// custom job structure, same Paella scheduling (Figures 7/8).
}
